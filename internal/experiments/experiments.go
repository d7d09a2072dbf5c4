// Package experiments regenerates every figure of the paper's
// evaluation (§4): the GA-convergence study (Fig. 3), the
// rebalancing-cost study (Fig. 4), the efficiency-versus-communication
// sweeps (Figs. 5 and 7), and the makespan comparisons across task-size
// distributions (Figs. 6, 8, 9, 10, 11).
//
// Every experiment is deterministic given a Profile seed: repeats run
// in a parallel worker pool, with each repeat drawing its cluster,
// network, workload and scheduler randomness from independent derived
// streams. All schedulers within a repeat see the same task set, the
// same cluster and the same network (§4.2: "All schedulers were
// presented with the same set of tasks for scheduling and all schedulers
// have the same information available to them").
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"pnsched"
	"pnsched/internal/cluster"
	"pnsched/internal/metrics"
	"pnsched/internal/network"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/sim"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// Profile scales the experiments. Paper() reproduces the published
// parameters; Default() completes in about a minute on a laptop;
// Fast() is sized for unit tests and benchmarks.
type Profile struct {
	Name string

	// Cluster shape (§4.2: up to 50 heterogeneous processors).
	Procs          int
	RateLo, RateHi units.Rate

	// Workload sizes: Tasks for the makespan bar figures, SweepTasks
	// for the efficiency sweeps (§4.3 uses 1000 tasks, batch 200).
	Tasks      int
	SweepTasks int

	// Repeats per data point (§4.3: 20 for sweeps). Fig3Runs is the
	// §3.5 averaging count (50 in the paper).
	Repeats  int
	Fig3Runs int

	// GA scale.
	Generations int

	// Fig. 4 parameters: tasks to schedule and the step between
	// rebalance counts (paper: 10,000 tasks, counts 0..20).
	Fig4Tasks int
	Fig4Step  int

	// BarMeanComm is the mean communication cost used by the makespan
	// bar figures (the sweeps vary it instead).
	BarMeanComm units.Seconds

	// Execution.
	Workers int
	Seed    uint64
}

// Paper returns the full published scale. Expect several minutes of
// compute for the complete figure set.
func Paper() Profile {
	return Profile{
		Name:        "paper",
		Procs:       50,
		RateLo:      10,
		RateHi:      100,
		Tasks:       10000,
		SweepTasks:  1000,
		Repeats:     20,
		Fig3Runs:    50,
		Generations: 1000,
		Fig4Tasks:   10000,
		Fig4Step:    1,
		BarMeanComm: 10,
		Workers:     runtime.NumCPU(),
		Seed:        2005,
	}
}

// Default returns a scaled-down profile preserving every shape in the
// paper while completing in roughly a minute.
func Default() Profile {
	p := Paper()
	p.Name = "default"
	p.Tasks = 1000
	p.Repeats = 5
	p.Fig3Runs = 10
	p.Generations = 300
	p.Fig4Tasks = 1000
	p.Fig4Step = 4
	return p
}

// Fast returns a profile sized for unit tests and benchmarks.
func Fast() Profile {
	return Profile{
		Name:        "fast",
		Procs:       10,
		RateLo:      10,
		RateHi:      100,
		Tasks:       150,
		SweepTasks:  120,
		Repeats:     2,
		Fig3Runs:    2,
		Generations: 60,
		Fig4Tasks:   200,
		Fig4Step:    10,
		BarMeanComm: 5,
		Workers:     4,
		Seed:        2005,
	}
}

func (p Profile) workers() int {
	if p.Workers <= 0 {
		return runtime.NumCPU()
	}
	return p.Workers
}

// SchedulerSpec names a scheduler and constructs fresh instances —
// GA schedulers are stateful, so every repeat gets its own.
type SchedulerSpec struct {
	Name string
	New  func(seed uint64) sched.Scheduler
}

// SchedulerOrder is the presentation order of the paper's bar charts —
// the registry's canonical names for the seven §4.1 comparators.
var SchedulerOrder = pnsched.PaperOrder

// Schedulers returns the seven comparison schedulers of §4.1 in
// SchedulerOrder. fixedBatch pins the GA schedulers' batch size to 200
// (as in the §4.3 sweeps); otherwise PN sizes batches dynamically
// (§3.7, exercised by Fig. 6).
func Schedulers(p Profile, fixedBatch bool) []SchedulerSpec {
	return p.schedulerSpecs(SchedulerOrder, fixedBatch)
}

// schedulerSpecs builds construction specs for the named schedulers
// through the pnsched registry. Every name is resolved to its
// canonical registry form up front; a name no registered scheduler
// answers to panics immediately — a typo'd or stale filter must not
// silently drop a scheduler from a study.
func (p Profile) schedulerSpecs(names []string, fixedBatch bool) []SchedulerSpec {
	specs := make([]SchedulerSpec, 0, len(names))
	for _, name := range names {
		canonical, ok := pnsched.Canonical(name)
		if !ok {
			panic(fmt.Sprintf("experiments: scheduler %q is not registered (registry knows: %v)", name, pnsched.Names()))
		}
		spec := pnsched.Spec{
			Name:         canonical,
			Generations:  p.Generations,
			Batch:        sched.DefaultBatchSize,
			DynamicBatch: !fixedBatch,
		}
		specs = append(specs, SchedulerSpec{Name: canonical, New: func(seed uint64) sched.Scheduler {
			s, err := pnsched.New(spec.With(pnsched.WithRNG(rng.New(seed))))
			if err != nil {
				panic(fmt.Sprintf("experiments: building %s: %v", canonical, err))
			}
			return s
		}})
	}
	return specs
}

// scenario binds everything one simulation run needs except the repeat
// seed.
type scenario struct {
	profile Profile
	tasks   int
	dist    workload.SizeDistribution
	netCfg  network.Config

	// procs overrides the profile's processor count when non-zero
	// (scalability sweeps).
	procs int
	// arrival overrides the all-at-start arrival process.
	arrival workload.ArrivalProcess
	// avail, when non-nil, assigns per-processor availability models
	// (dynamic-conditions scenarios); the RNG is a dedicated stream.
	avail func(i int, r *rng.RNG) cluster.AvailabilityModel
	// reissue enables the simulator's failure recovery.
	reissue units.Seconds
}

// seeds identifies a repeat's random streams; the scheduler stream is
// the only one that varies per scheduler, so every scheduler faces the
// identical system and workload.
const (
	streamCluster = 1
	streamNet     = 2
	streamTasks   = 3
	streamSched   = 4
	streamAvail   = 5
)

// runOne executes one (scheduler, repeat) simulation.
func runOne(sc scenario, spec SchedulerSpec, repeatSeed uint64) metrics.Sample {
	base := rng.New(repeatSeed)
	procs := sc.procs
	if procs == 0 {
		procs = sc.profile.Procs
	}
	clu := cluster.NewHeterogeneous(procs, sc.profile.RateLo, sc.profile.RateHi, base.Stream(streamCluster))
	if sc.avail != nil {
		availRNG := base.Stream(streamAvail)
		clu = clu.WithAvailability(func(i int) cluster.AvailabilityModel {
			return sc.avail(i, availRNG.Stream(uint64(i)))
		})
	}
	net := network.New(procs, sc.netCfg, base.Stream(streamNet))
	tasks := workload.Generate(workload.Spec{
		N:       sc.tasks,
		Sizes:   sc.dist,
		Arrival: sc.arrival,
	}, base.Stream(streamTasks))
	return metrics.FromSim(sim.Run(sim.Config{
		Cluster:        clu,
		Net:            net,
		Tasks:          tasks,
		Scheduler:      spec.New(repeatSeed ^ 0x5eed),
		ReissueTimeout: sc.reissue,
	}))
}

// repeatSeed derives the deterministic seed for a repeat of a figure.
func (p Profile) repeatSeed(figure, repeat int) uint64 {
	return p.Seed*1_000_003 + uint64(figure)*10_007 + uint64(repeat)
}

// runRepeats executes all repeats for one scheduler in parallel and
// aggregates.
func runRepeats(sc scenario, spec SchedulerSpec, figure int, repeats, workers int) metrics.Agg {
	samples := make([]metrics.Sample, repeats)
	parallelFor(repeats, workers, func(i int) {
		samples[i] = runOne(sc, spec, sc.profile.repeatSeed(figure, i))
	})
	return metrics.Aggregate(samples)
}

// parallelFor runs fn(0..n-1) across a bounded worker pool. Results are
// deterministic because every index derives its own random streams.
func parallelFor(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
