// Package experiments regenerates every figure of the paper's
// evaluation (§4): the GA-convergence study (Fig. 3), the
// rebalancing-cost study (Fig. 4), the efficiency-versus-communication
// sweeps (Figs. 5 and 7), and the makespan comparisons across task-size
// distributions (Figs. 6, 8, 9, 10, 11), plus the supplementary studies.
//
// Every simulation study is one sweep of pnsched.Run cells: a list of
// points (a generated workload, optionally with availability models)
// crossed with a list of scheduler specs and the profile's repeats,
// aggregated per (scheduler, point). Every experiment is deterministic
// given a Profile seed: cells run in a parallel worker pool, each
// drawing its cluster, network, workload and scheduler randomness from
// independent streams of its repeat seed. All schedulers within a
// repeat see the same task set, the same cluster and the same network
// (§4.2: "All schedulers were presented with the same set of tasks for
// scheduling and all schedulers have the same information available to
// them").
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pnsched"
	"pnsched/internal/cluster"
	"pnsched/internal/core"
	"pnsched/internal/ga"
	"pnsched/internal/metrics"
	"pnsched/internal/rng"
	"pnsched/internal/stats"
	"pnsched/internal/task"
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

// Schedulers returns the specs of the seven comparison schedulers of
// §4.1 in pnsched.PaperOrder. fixedBatch pins the GA schedulers' batch
// size to 200 (as in the §4.3 sweeps); otherwise PN sizes batches
// dynamically (§3.7, exercised by Fig. 6).
func Schedulers(p Profile, fixedBatch bool) []pnsched.Spec {
	return p.specs(pnsched.PaperOrder, fixedBatch)
}

// specs builds registry specs for the named schedulers, each under its
// canonical name. A name no registered scheduler answers to panics
// immediately — a typo'd or stale filter must not silently drop a
// scheduler from a study.
func (p Profile) specs(names []string, fixedBatch bool) []pnsched.Spec {
	specs := make([]pnsched.Spec, len(names))
	for i, name := range names {
		canonical, ok := pnsched.Canonical(name)
		if !ok {
			panic(fmt.Sprintf("experiments: scheduler %q is not registered (registry knows: %v)", name, pnsched.Names()))
		}
		specs[i] = pnsched.Spec{
			Name:         canonical,
			Generations:  p.Generations,
			Batch:        pnsched.DefaultBatchSize,
			DynamicBatch: !fixedBatch,
		}
	}
	return specs
}

// specNames lists the specs' scheduler names — a result's column order.
func specNames(specs []pnsched.Spec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// The random streams of a repeat seed. Cluster, network and tasks are
// the streams pnsched.GenerateWorkload draws (1, 2, 3); the GA-only
// studies draw their batch from the same task and cluster streams.
const (
	streamCluster = 1
	streamTasks   = 3
	streamSched   = 4
	streamAvail   = 5
)

// point is one x-axis value of a study: the workload every scheduler
// faces there, the seed id its repeats derive from, and optionally
// per-processor availability models (dynamic-conditions regimes),
// drawn from the repeat's stream 5.
type point struct {
	wl    pnsched.WorkloadConfig
	id    int
	avail func(i int, r *rng.RNG) cluster.AvailabilityModel
}

// workload is the §4.2 system on the profile's cluster: tasks drawn
// from dist, links spread 30% around meanComm with 20% jitter.
func (p Profile) workload(tasks int, dist workload.SizeDistribution, meanComm units.Seconds) pnsched.WorkloadConfig {
	return pnsched.WorkloadConfig{
		Tasks:      tasks,
		Procs:      p.Procs,
		RateLo:     p.RateLo,
		RateHi:     p.RateHi,
		Sizes:      dist,
		MeanComm:   meanComm,
		LinkSpread: 0.3,
		Jitter:     0.2,
	}
}

// sweep runs every (scheduler, point, repeat) cell of a study —
// GenerateWorkload from the repeat's seed, then pnsched.Run with the
// scheduler's RNG seeded from it too, so only the scheduler differs
// across a repeat's cells — and returns the
// aggregate of each (scheduler, point), indexed [scheduler][point].
// The cells form one flat job list so every core stays busy however
// slow individual schedulers are.
func (p Profile) sweep(specs []pnsched.Spec, points []point) [][]metrics.Agg {
	cells := make([]pnsched.Result, len(specs)*len(points)*p.Repeats)
	parallelFor(len(cells), p.workers(), func(i int) {
		s, pt, rep := specs[i/(len(points)*p.Repeats)], points[i/p.Repeats%len(points)], i%p.Repeats
		seed := p.repeatSeed(pt.id, rep)
		var err error
		if cells[i], err = runCell(s, pt, seed); err != nil {
			panic(fmt.Sprintf("experiments: %s at seed %d: %v", s.Name, seed, err))
		}
	})
	aggs := make([][]metrics.Agg, len(specs))
	for si := range aggs {
		aggs[si] = make([]metrics.Agg, len(points))
		for pi := range points {
			off := (si*len(points) + pi) * p.Repeats
			aggs[si][pi] = metrics.Aggregate(cells[off : off+p.Repeats])
		}
	}
	return aggs
}

// runCell runs one scheduler on the point's workload generated from
// seed.
func runCell(s pnsched.Spec, pt point, seed uint64) (pnsched.Result, error) {
	cfg := pt.wl
	cfg.Seed = seed
	w, err := pnsched.GenerateWorkload(cfg)
	if err != nil {
		return pnsched.Result{}, err
	}
	if pt.avail != nil {
		avail := rng.New(seed).Stream(streamAvail)
		w.Cluster = w.Cluster.WithAvailability(func(j int) cluster.AvailabilityModel {
			return pt.avail(j, avail.Stream(uint64(j)))
		})
	}
	return pnsched.Run(context.Background(), s.With(pnsched.WithRNG(rng.New(seed^0x5eed))), w)
}

// each maps f over a sweep's aggregates, keeping the [scheduler][point]
// shape.
func each(aggs [][]metrics.Agg, f func(metrics.Agg) float64) [][]float64 {
	out := make([][]float64, len(aggs))
	for si, row := range aggs {
		out[si] = make([]float64, len(row))
		for pi, agg := range row {
			out[si][pi] = f(agg)
		}
	}
	return out
}

func meanMakespan(a metrics.Agg) float64   { return a.Makespan.Mean }
func meanEfficiency(a metrics.Agg) float64 { return a.Efficiency.Mean }

// repeatSeed derives the deterministic seed for a repeat of a study.
// An id must not be shared between studies, or their rows are not
// independent samples. In use: 3, 4, 6, 8–11 (figures), 500–509 and
// 700–709 (sweeps), 90 (extended), 91–96 (scalability), 95–98
// (dynamic), 98 (island), 110–111 (ablation). The overlap
// on 95–98 is left to the reproduction ledger, because fixing it moves
// published rows.
func (p Profile) repeatSeed(id, repeat int) uint64 {
	return p.Seed*1_000_003 + uint64(id)*10_007 + uint64(repeat)
}

// draw builds what the GA-only studies optimise from base's streams: n
// tasks uniform in 10–1000 MFLOPs and m processor rates from the
// profile's range, each rate followed, when withComm, by that
// processor's communication estimate in [0.1, 2] s.
func (p Profile) draw(base *rng.RNG, n, m int, withComm bool) ([]task.Task, []units.Rate, []units.Seconds) {
	tasks := workload.Generate(workload.Spec{
		N:     n,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, base.Stream(streamTasks))
	r := base.Stream(streamCluster)
	rates := make([]units.Rate, m)
	var comm []units.Seconds
	if withComm {
		comm = make([]units.Seconds, m)
	}
	for j := range rates {
		rates[j] = units.Rate(r.Uniform(float64(p.RateLo), float64(p.RateHi)))
		if withComm {
			comm[j] = units.Seconds(r.Uniform(0.1, 2))
		}
	}
	return tasks, rates, comm
}

// batchProblem is one batch decision on empty queues, drawn by draw
// from seed.
func (p Profile) batchProblem(seed uint64, n, m int, withComm bool) *core.Problem {
	tasks, rates, comm := p.draw(rng.New(seed), n, m, withComm)
	return core.BuildProblem(tasks, rates, nil, comm, withComm)
}

// gaRun is one variant of a GA-level study: a whole batch decision on
// prob, drawing all its randomness from r.
type gaRun func(prob *core.Problem, r *rng.RNG) core.EvolveStats

// sequential seeds a population under cfg, then evolves it without a
// time budget, both from r.
func sequential(cfg core.Config, seed func(*core.Problem, int, *rng.RNG) []ga.Chromosome) gaRun {
	return func(prob *core.Problem, r *rng.RNG) core.EvolveStats {
		return core.Evolve(prob, cfg, seed(prob, cfg.Population, r), units.Inf(), r)
	}
}

// gaRepeats is the repeat loop of the GA-level studies. Repeat rep of
// every variant decides batchProblem(repeatSeed(id, rep), n, m, true)
// from rng.New(seed ^ salt); it returns the stats [variant][repeat] and
// each variant's mean wall-clock per decision (ms). Runs go one after
// another, never in a worker pool, so that none competes for cores with
// the one being timed; each builds its own problem and RNG, so their
// order cannot change a number.
func (p Profile) gaRepeats(id int, salt uint64, n, m int, variants []gaRun) ([][]core.EvolveStats, []float64) {
	runs := make([][]core.EvolveStats, len(variants))
	wallMS := make([]float64, len(variants))
	for vi, run := range variants {
		for rep := 0; rep < p.Repeats; rep++ {
			seed := p.repeatSeed(id, rep)
			prob := p.batchProblem(seed, n, m, true)
			r := rng.New(seed ^ salt)
			start := time.Now()
			runs[vi] = append(runs[vi], run(prob, r))
			wallMS[vi] += time.Since(start).Seconds() * 1e3
		}
		wallMS[vi] /= float64(p.Repeats)
	}
	return runs, wallMS
}

// summarize summarises f over one variant's runs.
func summarize(runs []core.EvolveStats, f func(core.EvolveStats) float64) stats.Summary {
	xs := make([]float64, len(runs))
	for i, st := range runs {
		xs[i] = f(st)
	}
	s, _ := stats.Summarize(xs)
	return s
}

func bestMakespan(st core.EvolveStats) float64 { return float64(st.BestMakespan) }

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
