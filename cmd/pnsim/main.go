// Command pnsim runs a single scheduling simulation and prints its
// metrics — a quick way to compare schedulers on one scenario.
//
// Usage:
//
//	pnsim -sched PN -tasks 1000 -procs 50 -dist normal -comm 10
//	pnsim -sched RR -dist poisson -mean 100
//	pnsim -sched all -tasks 500        # run every scheduler
//	pnsim -schedulers                  # list schedulers with metadata
//	pnsim -workload tasks.json -sched EF
//	pnsim -scenario scenario.json -gantt
//
// A -scenario file fully describes cluster, network, workload and
// scheduler (see internal/scenario); other scenario flags are then
// ignored.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"pnsched"
	"pnsched/internal/metrics"
	"pnsched/internal/rng"
	"pnsched/internal/scenario"
	"pnsched/internal/task"
	"pnsched/internal/workload"
)

func main() {
	var (
		schedName = flag.String("sched", "PN", "scheduler (case-insensitive registry name, e.g. PN, pn-island, ef) or 'all' for the paper's seven")
		nTasks    = flag.Int("tasks", 1000, "number of tasks")
		procs     = flag.Int("procs", 50, "number of processors")
		rateLo    = flag.Float64("rate-lo", 10, "minimum processor rate (Mflop/s)")
		rateHi    = flag.Float64("rate-hi", 100, "maximum processor rate (Mflop/s)")
		dist      = flag.String("dist", "normal", "task-size distribution: normal, uniform, poisson, constant")
		mean      = flag.Float64("mean", 1000, "mean size (normal/poisson/constant), MFLOPs")
		variance  = flag.Float64("variance", 9e5, "size variance (normal)")
		lo        = flag.Float64("lo", 10, "lower size bound (uniform)")
		hi        = flag.Float64("hi", 1000, "upper size bound (uniform)")
		comm      = flag.Float64("comm", 10, "mean communication cost per task (seconds)")
		spread    = flag.Float64("comm-spread", 0.3, "per-link spread of mean comm cost (fraction)")
		jitter    = flag.Float64("comm-jitter", 0.2, "per-transfer jitter (fraction)")
		gens      = flag.Int("generations", 1000, "GA generations (PN/ZO)")
		batch     = flag.Int("batch", 200, "batch size for batch schedulers")
		dynamic   = flag.Bool("dynamic-batch", false, "let PN size batches dynamically (§3.7)")
		seed      = flag.Uint64("seed", 1, "random seed")
		wlFile    = flag.String("workload", "", "load tasks from a pnworkload JSON file instead of generating")
		gantt     = flag.Bool("gantt", false, "print a per-processor activity timeline after each run")
		scenFile  = flag.String("scenario", "", "run a scenario JSON file (overrides the other scenario flags)")
		listSch   = flag.Bool("schedulers", false, "list the registered schedulers (mode, GA/heuristic, summary) and exit")
	)
	flag.Parse()

	if *listSch {
		pnsched.WriteSchedulerTable(os.Stdout)
		return
	}
	if *scenFile != "" {
		runScenario(*scenFile, *gantt)
		return
	}

	base := rng.New(*seed)
	var tasks []task.Task
	if *wlFile != "" {
		f, err := os.Open(*wlFile)
		if err != nil {
			fatal(err)
		}
		tasks, err = workload.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		d, err := workload.DistributionByName(*dist, *mean, *variance, *lo, *hi)
		if err != nil {
			fatal(err)
		}
		tasks = workload.Generate(workload.Spec{N: *nTasks, Sizes: d}, base.Stream(1))
	}

	names := []string{*schedName}
	if *schedName == "all" {
		// Copy: the canonicalization below writes into names, and the
		// exported PaperOrder slice must not be mutated.
		names = append([]string(nil), pnsched.PaperOrder...)
	}
	for i, name := range names {
		// Result tables show the canonical registry name whatever the
		// casing on the command line; unknown names error in the loop
		// below with the full registry listing.
		if c, ok := pnsched.Canonical(name); ok {
			names[i] = c
		}
	}

	tbl := metrics.Table{
		Title:  fmt.Sprintf("%d tasks on %d processors, mean comm %.2gs, seed %d", len(tasks), *procs, *comm, *seed),
		Header: []string{"scheduler", "makespan", "efficiency", "sched-busy", "invocations"},
	}
	for _, name := range names {
		w := pnsched.Workload{
			Cluster: pnsched.NewHeterogeneousCluster(*procs, pnsched.Rate(*rateLo), pnsched.Rate(*rateHi), base.Stream(2)),
			Network: pnsched.NewNetwork(*procs, pnsched.NetworkConfig{
				MeanCost:   pnsched.Seconds(*comm),
				LinkSpread: *spread,
				Jitter:     *jitter,
			}, base.Stream(3)),
			Tasks: tasks,
		}
		spec := pnsched.Spec{
			Name:         name,
			Generations:  *gens,
			Batch:        *batch,
			DynamicBatch: *dynamic,
		}
		var opts []pnsched.RunOption
		var tl *pnsched.Timeline
		if *gantt {
			tl = new(pnsched.Timeline)
			opts = append(opts, pnsched.WithTimeline(tl))
		}
		res, err := pnsched.Run(context.Background(), spec.With(pnsched.WithRNG(base.Stream(4))), w, opts...)
		if err != nil {
			fatal(err)
		}
		if res.Completed != len(tasks) {
			fmt.Fprintf(os.Stderr, "pnsim: %s completed only %d of %d tasks\n", name, res.Completed, len(tasks))
		}
		tbl.AddRow(name, res.Makespan, res.Efficiency, res.SchedulerBusy, res.Invocations)
		if tl != nil {
			fmt.Printf("\n%s timeline:\n", name)
			tl.Gantt(os.Stdout, 96)
			fmt.Println()
		}
	}
	tbl.Render(os.Stdout)
}

// runScenario executes a scenario file once and prints its metrics.
func runScenario(path string, gantt bool) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	spec, err := scenario.Load(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	sch, w, err := spec.Build(func(name string) (io.ReadCloser, error) {
		return os.Open(name)
	})
	if err != nil {
		fatal(err)
	}
	// Run builds its own scheduler; this one, off the scenario's
	// unseeded spec, only names it.
	named, err := pnsched.New(spec.Scheduler)
	if err != nil {
		fatal(err)
	}
	var opts []pnsched.RunOption
	var tl *pnsched.Timeline
	if gantt {
		tl = new(pnsched.Timeline)
		opts = append(opts, pnsched.WithTimeline(tl))
	}
	res, err := pnsched.Run(context.Background(), sch, w, opts...)
	if err != nil {
		fatal(err)
	}
	tbl := metrics.Table{
		Title:  fmt.Sprintf("scenario %s: %s on %d processors", path, named.Name(), w.Cluster.M()),
		Header: []string{"makespan", "efficiency", "completed", "reissued", "sched-busy"},
	}
	tbl.AddRow(res.Makespan, res.Efficiency, res.Completed, res.Reissued, res.SchedulerBusy)
	tbl.Render(os.Stdout)
	if tl != nil {
		fmt.Println()
		tl.Gantt(os.Stdout, 96)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnsim:", err)
	os.Exit(1)
}
