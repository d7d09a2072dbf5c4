package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"pnsched/internal/core"
	"pnsched/internal/metrics"
	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// IslandStudy compares the sequential PN engine against the
// island-model engine at an equal total generation budget on a
// paper-scale batch decision: N islands evolve budget/N generations
// each, concurrently, so the wall-clock column shows what parallel
// hardware buys and the makespan column what the split costs (or
// gains — migration plus independent restarts often beat one long
// run). Wall-clock is real time and machine-dependent; the makespans
// are deterministic per profile seed.
type IslandStudy struct {
	Profile     string
	BatchTasks  int
	Procs       int
	Generations int // total budget, split evenly across islands
	Repeats     int
	GoMaxProcs  int

	Islands  []int     // 1 = sequential Evolve
	Makespan []float64 // mean best predicted makespan (s)
	WallMS   []float64 // mean wall-clock per decision (ms)
	Speedup  []float64 // sequential wall-clock / variant wall-clock
	Evals    []float64 // mean fitness evaluations per decision
}

// islandStudyCounts are the island counts exercised, sequential first.
var islandStudyCounts = []int{1, 2, 4, 8}

// Island runs the island-vs-sequential study. Each repeat decides one
// batch of SweepTasks uniform tasks on the profile's cluster with
// communication estimates.
func Island(p Profile) *IslandStudy {
	res := &IslandStudy{
		Profile:     p.Name,
		BatchTasks:  p.SweepTasks,
		Procs:       p.Procs,
		Generations: p.Generations,
		Repeats:     p.Repeats,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Islands:     islandStudyCounts,
		Makespan:    make([]float64, len(islandStudyCounts)),
		WallMS:      make([]float64, len(islandStudyCounts)),
		Speedup:     make([]float64, len(islandStudyCounts)),
		Evals:       make([]float64, len(islandStudyCounts)),
	}
	// Variants run one after another (not in a worker pool): each
	// island run wants the whole machine, and the wall-clock numbers
	// would be meaningless with variants competing for cores.
	for vi, n := range islandStudyCounts {
		cfg := core.DefaultConfig()
		cfg.Generations = p.Generations / n
		if cfg.Generations < 1 {
			cfg.Generations = 1
		}
		var mk, wall, evals float64
		for rep := 0; rep < p.Repeats; rep++ {
			seed := p.repeatSeed(98, rep)
			prob := p.batchProblem(seed, p.SweepTasks, p.Procs, true)
			r := rng.New(seed ^ 0x15a4d)
			start := time.Now()
			var st core.EvolveStats
			if n == 1 {
				st = core.Evolve(prob, cfg, core.ListPopulation(prob, cfg.Population, r), units.Inf(), r)
			} else {
				st = core.EvolveIsland(context.Background(), prob, cfg,
					core.IslandConfig{Islands: n}, units.Inf(), r)
			}
			wall += time.Since(start).Seconds() * 1e3
			mk += float64(st.BestMakespan)
			evals += float64(st.Evals)
		}
		res.Makespan[vi] = mk / float64(p.Repeats)
		res.WallMS[vi] = wall / float64(p.Repeats)
		res.Evals[vi] = evals / float64(p.Repeats)
	}
	for vi := range res.Islands {
		if res.WallMS[vi] > 0 {
			res.Speedup[vi] = res.WallMS[0] / res.WallMS[vi]
		}
	}
	return res
}

// Table renders one row per island count.
func (r *IslandStudy) Table() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Island model: batch of %d tasks on %d procs, %d total generations, %d repeats (%s profile, GOMAXPROCS=%d)",
			r.BatchTasks, r.Procs, r.Generations, r.Repeats, r.Profile, r.GoMaxProcs),
		Header: []string{"islands", "makespan[s]", "wall[ms]", "speedup", "evals"},
	}
	for vi, n := range r.Islands {
		label := fmt.Sprint(n)
		if n == 1 {
			label = "1 (seq)"
		}
		t.AddRow(label, r.Makespan[vi], r.WallMS[vi], r.Speedup[vi], r.Evals[vi])
	}
	return t
}

// WritePlot draws wall-clock versus island count.
func (r *IslandStudy) WritePlot(w io.Writer) {
	xs := make([]float64, len(r.Islands))
	for i, n := range r.Islands {
		xs[i] = float64(n)
	}
	metrics.Plot(w, "Island model: wall-clock[ms] per batch decision vs islands",
		[]metrics.Series{{Name: "wall ms", X: xs, Y: r.WallMS}}, 72, 14)
}
