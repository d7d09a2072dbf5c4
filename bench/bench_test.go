package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testScale runs every workload at 1 % of its counts, with no time
// floor: exactly the least op count, so results that should repeat do.
const testScale = 0.01

func testRun(t *testing.T, name string, seed uint64, trace bool, outDir string) *result {
	t.Helper()
	def, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(runConfig{def: def, seed: seed, trace: trace, outDir: outDir, scale: testScale})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	return res
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields() // the contract allows exactly these keys
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesHarness is the drift test: BENCHMARK.json and
// the harness's own tables name the same workloads, metrics, units and
// bounds.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming contract", w.Name)
		}
	}
	check := func(kind string, got []benchMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s metric %q: better is %q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEndMetrics)
	check("per_layer", f.PerLayer, perLayerMetrics)
	for i, m := range f.EndToEnd {
		if want := endToEndMetrics[i]; m.Bound != want.bound || (m.Better == "higher") != want.higher {
			t.Errorf("%s: bound %v better %q in BENCHMARK.json, the harness has %v, higher %v", m.Name, m.Bound, m.Better, want.bound, want.higher)
		}
	}
}

// exactForSeed names the metrics that must repeat exactly when a sim-*
// workload (one goroutine, fixed op count) is run again with the seed.
var exactForSeed = map[bool][]string{
	false: {"makespan_over_ideal"},
	true:  {"core.genes_per_batch", "core.best_makespan_s", "core.generations_per_batch", "sim.events_per_task"},
}

// TestEveryWorkloadSmoke runs each workload untraced and traced at 1 %
// of its counts: every metric of the run's table comes out exactly
// once with its unit, the checks pass, the trace file parses with
// every child span inside its parent, and a second run of a sim-*
// workload with the same seed repeats its counts and schedule quality.
func TestEveryWorkloadSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := testRun(t, w.name, 7, trace, out)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d ops failed: %v %v", w.name, trace, res.Correct, res.Failed, res.Attempted, res.OpErrors, res.CheckErrors)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s (trace %v): metric %s missing or unit %q, want %q", w.name, trace, m.name, got.Unit, m.unit)
				}
			}
			line, err := json.Marshal(res.verdict)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s: driver line has keys %v (%v), want correct/attempted/failed/metrics", w.name, keys, err)
			}
			if !trace {
				for _, m := range endToEndMetrics {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want positive", w.name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
			if w.kind != kindSim {
				continue
			}
			again := testRun(t, w.name, 7, trace, out)
			if again.InputHash != res.InputHash {
				t.Errorf("%s: input hash %s then %s for one seed", w.name, res.InputHash, again.InputHash)
			}
			for _, m := range exactForSeed[trace] {
				if a, b := res.Metrics[m].Value, again.Metrics[m].Value; a != b {
					t.Errorf("%s: %s is %v then %v for one seed", w.name, m, a, b)
				}
			}
		}
		checkTraceFile(t, filepath.Join(out, "trace-"+w.name+".json"))
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) < 2 || tf.Spans[0].Parent != -1 {
		t.Fatalf("%s: %d spans, first parent %d", path, len(tf.Spans), tf.Spans[0].Parent)
	}
	names := map[string]bool{}
	for i, s := range tf.Spans {
		names[s.Name] = true
		if s.ID != i || s.End < s.Start || s.Self < -1e-6 || s.Self > s.End-s.Start+1e-6 {
			t.Errorf("%s: span %d malformed: %+v", path, i, s)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			t.Errorf("%s: span %d has parent %d, want an earlier span", path, i, s.Parent)
			continue
		}
		if p := tf.Spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d [%v, %v] leaves its parent [%v, %v]", path, i, s.Start, s.End, p.Start, p.End)
		}
	}
	if !names["sched.batch"] || !(names["job"] || names["run"]) {
		t.Errorf("%s: span names %v, want op spans and sched.batch", path, names)
	}
}

// TestSeedDrivesEveryInput: the same seed gives the same inputs, another
// seed gives other inputs.
func TestSeedDrivesEveryInput(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(0.1)
		a, err := generate(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 11)
		c, _ := generate(w, 12)
		if a.hash != b.hash {
			t.Errorf("%s: same seed, input hashes %x and %x", w.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 11 and 12 give the same input hash %x", w.name, a.hash)
		}
	}
}

// TestSvcPNRunsFullGenerationCap pins the defect the whole-MFLOP sizes
// avoid: every evolve of svc-pn must run its 300 generations, none may
// stop on the §3.4 budget.
func TestSvcPNRunsFullGenerationCap(t *testing.T) {
	res := testRun(t, "svc-pn", 3, true, t.TempDir())
	if got := res.Metrics["core.generations_per_batch"].Value; got != 300 {
		t.Errorf("svc-pn ran %v generations per batch, want 300 (check errors: %v)", got, res.CheckErrors)
	}
	if got := res.Metrics["core.budget_stop_share"].Value; got != 0 {
		t.Errorf("svc-pn budget-stopped %v of its evolves", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tput float64, st stamp) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 3; seed++ {
			r := &result{Workload: "svc-wire", Seed: seed, Stamp: st,
				verdict: verdict{Correct: true, Attempted: 10, Metrics: map[string]metricValue{
					"tasks_per_s":        {Value: tput + float64(seed), Unit: "1/s"},
					"job_latency_p50_ms": {Value: 5, Unit: "ms"},
				}}}
			if err := r.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	here := stamp{GoVersion: "go1", GOMAXPROCS: 2, NumCPU: 2, CPUModel: "x"}
	base := write("a.jsonl", 1000, here)
	same := write("b.jsonl", 990, here)
	slow := write("c.jsonl", 600, here)
	other := here
	other.NumCPU = 64
	elsewhere := write("d.jsonl", 1000, other)

	var buf bytes.Buffer
	if ok, err := compareFiles(&buf, base, same); err != nil || !ok {
		t.Errorf("sets within the bound: ok %v, err %v\n%s", ok, err, buf.String())
	}
	buf.Reset()
	if ok, err := compareFiles(&buf, base, slow); err != nil || ok || !strings.Contains(buf.String(), "WORSE") {
		t.Errorf("a 40 %% throughput loss was not flagged: ok %v, err %v\n%s", ok, err, buf.String())
	}
	if _, err := compareFiles(&buf, base, elsewhere); err == nil {
		t.Error("sets from different machines were compared")
	}
}
