package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"

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
	variants := make([]gaRun, len(islandStudyCounts))
	for vi, n := range islandStudyCounts {
		cfg := core.DefaultConfig()
		cfg.Generations = max(p.Generations/n, 1)
		variants[vi] = sequential(cfg, core.ListPopulation)
		if n > 1 {
			variants[vi] = func(prob *core.Problem, r *rng.RNG) core.EvolveStats {
				return core.EvolveIsland(context.Background(), prob, cfg,
					core.IslandConfig{Islands: n}, units.Inf(), r)
			}
		}
	}
	runs, wallMS := p.gaRepeats(98, 0x15a4d, p.SweepTasks, p.Procs, variants)
	res := &IslandStudy{
		Profile:     p.Name,
		BatchTasks:  p.SweepTasks,
		Procs:       p.Procs,
		Generations: p.Generations,
		Repeats:     p.Repeats,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Islands:     islandStudyCounts,
		WallMS:      wallMS,
		Speedup:     make([]float64, len(islandStudyCounts)),
	}
	for vi, reps := range runs {
		res.Makespan = append(res.Makespan, summarize(reps, bestMakespan).Mean)
		res.Evals = append(res.Evals, summarize(reps, func(st core.EvolveStats) float64 { return float64(st.Evals) }).Mean)
		if wallMS[vi] > 0 {
			res.Speedup[vi] = wallMS[0] / wallMS[vi]
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
