package experiments

import (
	"fmt"
	"io"
	"slices"

	"pnsched/internal/core"
	"pnsched/internal/metrics"
)

// EvolveStudy compares the naive (full re-evaluation) and incremental
// (cached completion-time, delta-update) evaluation engines on the
// paper-scale batch decision: a batch of 200 tasks on 50 heterogeneous
// processors with the micro-GA of 20 and one §3.5 rebalance per
// individual per generation. Both engines are run on identical seeds;
// Identical records that every repeat produced byte-identical best
// schedules (the incremental engine's determinism guarantee), and
// ReductionPct is the saving in evaluated genes per generation, in
// full-chromosome equivalents. The batch shape is pinned to the
// paper's regardless of profile — the profile scales generations and
// repeats only — so every profile's numbers speak for the published
// scale.
type EvolveStudy struct {
	Profile     string
	BatchTasks  int
	Procs       int
	Generations int
	Repeats     int

	Engines      []string  // "naive", "incremental"
	Makespan     []float64 // mean best predicted makespan (s)
	WallMS       []float64 // mean wall-clock per decision (ms)
	FullEvalsGen []float64 // mean evaluated genes per generation, in full-chromosome equivalents
	ModelledMS   []float64 // mean modelled scheduler cost (ms) under the §3.4 gene ledger

	Identical    bool    // every repeat: byte-identical best schedules across engines
	ReductionPct float64 // saving in full-equivalents/generation, naive → incremental
}

// Paper-scale batch decision (§4.2 cluster, §4.3 batch), pinned across
// profiles.
const (
	evolveStudyTasks = 200
	evolveStudyProcs = 50
)

// Evolve runs the naive-vs-incremental evaluation study.
func Evolve(p Profile) *EvolveStudy {
	engines := []string{"naive", "incremental"}
	variants := make([]gaRun, len(engines))
	for ei, engine := range engines {
		cfg := core.DefaultConfig()
		cfg.Generations = p.Generations
		cfg.NaiveEvaluation = engine == "naive"
		variants[ei] = sequential(cfg, core.ListPopulation)
	}
	runs, wallMS := p.gaRepeats(99, 0xe401e, evolveStudyTasks, evolveStudyProcs, variants)
	res := &EvolveStudy{
		Profile:     p.Name,
		BatchTasks:  evolveStudyTasks,
		Procs:       evolveStudyProcs,
		Generations: p.Generations,
		Repeats:     p.Repeats,
		Engines:     engines,
		WallMS:      wallMS,
	}
	chrom := core.ChromosomeLen(evolveStudyTasks, evolveStudyProcs)
	for _, reps := range runs {
		res.Makespan = append(res.Makespan, summarize(reps, bestMakespan).Mean)
		res.FullEvalsGen = append(res.FullEvalsGen, summarize(reps, func(st core.EvolveStats) float64 {
			return float64(st.GenesEvaluated) / float64(st.Result.Generations) / float64(chrom)
		}).Mean)
		res.ModelledMS = append(res.ModelledMS, summarize(reps, func(st core.EvolveStats) float64 {
			return float64(st.ModelledCost) * 1e3
		}).Mean)
	}
	res.Identical = slices.EqualFunc(runs[0], runs[1], func(naive, incr core.EvolveStats) bool {
		return slices.Equal(naive.Result.Best, incr.Result.Best)
	})
	if res.FullEvalsGen[0] > 0 {
		res.ReductionPct = 100 * (1 - res.FullEvalsGen[1]/res.FullEvalsGen[0])
	}
	return res
}

// Table renders one row per evaluation engine.
func (r *EvolveStudy) Table() *metrics.Table {
	identical := "yes"
	if !r.Identical {
		identical = "NO"
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("Incremental evaluation: batch of %d tasks on %d procs, %d generations, %d repeats (%s profile) — %.1f%% fewer full-evals/gen, identical schedules: %s",
			r.BatchTasks, r.Procs, r.Generations, r.Repeats, r.Profile, r.ReductionPct, identical),
		Header: []string{"engine", "makespan[s]", "wall[ms]", "full-evals/gen", "modelled[ms]"},
	}
	for ei, name := range r.Engines {
		t.AddRow(name, r.Makespan[ei], r.WallMS[ei], r.FullEvalsGen[ei], r.ModelledMS[ei])
	}
	return t
}

// WritePlot draws evaluated work per generation for the two engines.
func (r *EvolveStudy) WritePlot(w io.Writer) {
	xs := []float64{0, 1}
	metrics.Plot(w, "Incremental evaluation: full-chromosome-equivalent evals per generation (0=naive, 1=incremental)",
		[]metrics.Series{{Name: "full-evals/gen", X: xs, Y: r.FullEvalsGen}}, 72, 14)
}
