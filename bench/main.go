// Command bench is the repository's benchmark: one process runs one
// workload — set-up, a measured phase of closed-loop ops, correctness
// checks — and prints the metrics BENCHMARK.json names. See README.md.
//
//	bench -workload svc-wire -seed 1 -seconds 10            end-to-end metrics
//	bench -workload svc-wire -seed 1 -seconds 10 -trace 1   per-layer metrics + trace file
//	bench -compare a.jsonl b.jsonl                          two sets of runs side by side
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 10, "length of the measured phase; the workload's least op count still runs when it is shorter")
		trace   = flag.Int("trace", 0, "1: traced run (quarter counts, spans on, then the layer probes) reporting the per-layer metrics")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for journals, the trace file and results.jsonl")
		compare = flag.Bool("compare", false, "compare two results files: bench -compare a.jsonl b.jsonl")
		list    = flag.Bool("list", false, "list the workloads and why each exists")
	)
	flag.Parse()

	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-13s %s\n", w.name, w.why)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		def, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		res, err := run(runConfig{def: def, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir})
		if err != nil {
			fatal(err)
		}
		if err := res.appendTo(filepath.Join(*outDir, "results.jsonl")); err != nil {
			fatal(err)
		}
		res.print()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// print writes the human-readable report, then the driver's line last.
func (r *result) print() {
	fmt.Printf("workload %s seed %d trace %v input %s\n", r.Workload, r.Seed, r.Trace, r.InputHash)
	for _, kv := range sortedKeys(r.Counts) {
		fmt.Printf("  count  %-28s %d\n", kv, r.Counts[kv])
	}
	for _, kv := range sortedKeys(r.Detail) {
		fmt.Printf("  detail %-28s %.6g\n", kv, r.Detail[kv])
	}
	for _, kv := range sortedKeys(r.Metrics) {
		fmt.Printf("  metric %-34s %14.6g %s\n", kv, r.Metrics[kv].Value, r.Metrics[kv].Unit)
	}
	for _, e := range r.OpErrors {
		fmt.Fprintln(os.Stderr, "bench: failed op:", e)
	}
	for _, e := range r.CheckErrors {
		fmt.Fprintln(os.Stderr, "bench: failed check:", e)
	}
	line, err := json.Marshal(r.verdict)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
