package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"pnsched"
)

// kind selects the harness that drives a workload.
type kind int

const (
	kindSvc    kind = iota // ServeJobs: jobs submitted over the wire
	kindStream             // Serve: chunks submitted in-process, workers over the wire
	kindSim                // Run: the discrete-event simulator, no wire
)

// workloadDef is one benchmark workload at full size. Counts are ops —
// a job (svc-*), a Submit+Wait chunk (serve-stream) or one simulator
// run (sim-*).
type workloadDef struct {
	name string
	why  string
	kind kind

	warmup  int // ops run during set-up, before anything is measured
	minOps  int // least measured ops; quality metrics are taken over exactly these
	inputs  int // distinct pre-generated inputs the ops cycle over
	clients int // closed-loop callers

	// Live workloads.
	workers    int
	equalRate  float64 // > 0: every worker claims this rate; 0: seeded in [10,100]
	maxActive  int
	watchers   int
	tasksPerOp int
	journal    bool

	// sim-*: task counts the inputs cycle through. The mix is deliberate:
	// with equal-sized single-threaded runs p90 is machine noise, with a
	// 40/40/20 mix p50 and p90 each sit inside one size mode.
	taskCycle []int

	// spec returns op i's scheduler spec.
	spec func(seed uint64, i int) pnsched.Spec
}

func mmSpec(batch int) func(uint64, int) pnsched.Spec {
	return func(uint64, int) pnsched.Spec { return pnsched.Spec{Name: "MM", Batch: batch} }
}

// workloads is the benchmark's workload table; BENCHMARK.json names the
// same six (bench_test.go checks the two agree).
var workloads = []workloadDef{
	{
		name: "svc-wire",
		why:  "job service, heuristic scheduler, no journal: JSON frame decode/encode and per-frame writes dominate; journal and GA bypassed",
		kind: kindSvc, warmup: 600, minOps: 3000, inputs: 200, clients: 4,
		workers: 4, equalRate: 100, maxActive: 2, watchers: 2, tasksPerOp: 64,
		spec: mmSpec(0),
	},
	{
		name: "svc-journal",
		why:  "svc-wire plus the durable journal and a restart in set-up: append and snapshot under the dispatcher lock dominate; GA bypassed",
		kind: kindSvc, warmup: 500, minOps: 1500, inputs: 200, clients: 4,
		workers: 4, equalRate: 100, maxActive: 2, tasksPerOp: 64, journal: true,
		spec: mmSpec(0),
	},
	{
		name: "svc-pn",
		why:  "the paper's GA inside the live dispatcher, one full-cap evolve per 200-task job, concurrent with wire I/O; journal bypassed",
		kind: kindSvc, warmup: 40, minOps: 200, inputs: 100, clients: 4,
		workers: 8, maxActive: 1, tasksPerOp: 200,
		spec: func(seed uint64, i int) pnsched.Spec {
			return pnsched.Spec{Name: "PN", Generations: 300, Batch: 200, Seed: seed + uint64(i)}
		},
	},
	{
		name: "serve-stream",
		why:  "the same wire layer driven by the other runtime (dist.Server): the guard for the pool-core merge; job layer, journal and GA bypassed",
		kind: kindStream, warmup: 250, minOps: 1100, inputs: 100, clients: 1,
		workers: 4, equalRate: 100, watchers: 1, tasksPerOp: 256,
		spec: mmSpec(64),
	},
	{
		name: "sim-paper",
		why:  "the researcher's path: PN at paper scale (H=200, M=50) under the simulator's modelled budget, single-threaded; wire and job layer bypassed",
		kind: kindSim, warmup: 25, minOps: 100, inputs: 50, clients: 1,
		taskCycle: []int{500, 500, 1000, 1000, 2000},
		spec: func(seed uint64, i int) pnsched.Spec {
			return pnsched.Spec{Name: "PN", Generations: 100, Seed: seed + uint64(i)}
		},
	},
	{
		name: "sim-heur",
		why:  "the paper's heuristic baseline: Min-min plus the simulator and event queue; GA and wire bypassed, so a GA change must not move it",
		kind: kindSim, warmup: 75, minOps: 300, inputs: 60, clients: 1,
		taskCycle: []int{5000, 5000, 10000, 10000, 20000},
		spec:      mmSpec(0),
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the op counts by one common factor (tests run at 1 %).
// The measured count stays whole cycles of the task mix, so every block
// of a sim-* run holds the same mix.
func (w workloadDef) scaled(f float64) workloadDef {
	cycle := max(1, len(w.taskCycle))
	w.warmup = max(1, int(math.Round(float64(w.warmup)*f)))
	w.minOps = max(cycle, int(math.Round(float64(w.minOps)*f))/cycle*cycle)
	w.inputs = min(w.inputs, w.minOps)
	return w
}

// blockOps is the number of ops per block of the measured phase: a
// twentieth of the least run, in whole cycles of the task mix.
func (w workloadDef) blockOps() int {
	cycle := max(1, len(w.taskCycle))
	return max(cycle, w.minOps/20/cycle*cycle)
}

// blockGroups is the number of blocks after which a sim-* run is back on
// the same inputs (the single caller takes them in order); live jobs
// are interchangeable, so all their blocks form one group.
func (w workloadDef) blockGroups() int {
	if n := w.blockOps(); w.kind == kindSim && w.inputs%n == 0 {
		return w.inputs / n
	}
	return 1
}

// inputs is everything a workload feeds the program, generated from the
// seed alone.
type inputs struct {
	hash  uint64
	rates []pnsched.Rate     // live: each worker's claimed rate
	jobs  [][]pnsched.Task   // live: one task list per input
	work  []float64          // live: Σsize per input, whole MFLOPs
	sims  []pnsched.Workload // sim-*: one system + task set per input
	ideal []float64          // sim-*: Σsize/Σrate per input, the makespan lower bound
}

// paperSizes is the paper's Fig-5 task-size distribution.
var paperSizes = pnsched.Normal{Mean: 1000, Variance: 9e5}

// simInput generates sim-* input k: the paper's §4.2 system shape (50
// processors rated 10–100 Mflop/s, Fig-5 task sizes) with a jittered
// network. A simulator run advances the network's random stream, so a
// run that must repeat exactly takes a fresh copy from here.
func simInput(w workloadDef, seed uint64, k int) (pnsched.Workload, error) {
	return pnsched.GenerateWorkload(pnsched.WorkloadConfig{
		Tasks: w.taskCycle[k%len(w.taskCycle)], Procs: 50,
		MeanComm: 1, LinkSpread: 0.5, Jitter: 0.2,
		Seed: seed + uint64(k),
	})
}

func generate(w workloadDef, seed uint64) (*inputs, error) {
	in := &inputs{}
	h := fnv.New64a()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	base := pnsched.NewRNG(seed)
	if w.kind == kindSim {
		for k := 0; k < w.inputs; k++ {
			wl, err := simInput(w, seed, k)
			if err != nil {
				return nil, err
			}
			var work float64
			for _, t := range wl.Tasks {
				work += float64(t.Size)
				put(float64(t.Size))
			}
			for _, p := range wl.Cluster.Procs {
				put(float64(p.BaseRate))
			}
			in.sims = append(in.sims, wl)
			in.ideal = append(in.ideal, work/float64(wl.Cluster.TotalRateAt(0)))
		}
		in.hash = h.Sum64()
		return in, nil
	}

	rr := base.Stream(1)
	for j := 0; j < w.workers; j++ {
		rate := w.equalRate
		if rate == 0 {
			rate = math.Round(rr.Uniform(10, 100))
		}
		in.rates = append(in.rates, pnsched.Rate(rate))
		put(rate)
	}
	tr := base.Stream(2)
	for k := 0; k < w.inputs; k++ {
		ts := pnsched.GenerateTasks(w.tasksPerOp, paperSizes, tr)
		var work float64
		for i := range ts {
			// Whole MFLOPs: with fractional sizes the dispatcher's
			// per-worker pending sum keeps a rounding residue after the
			// worker drains, and every later PN batch budget-stops at
			// generation 0 (see README, "Defects avoided").
			ts[i].Size = pnsched.MFlops(math.Round(float64(ts[i].Size)))
			work += float64(ts[i].Size)
			put(float64(ts[i].Size))
		}
		in.jobs = append(in.jobs, ts)
		in.work = append(in.work, work)
	}
	in.hash = h.Sum64()
	return in, nil
}
