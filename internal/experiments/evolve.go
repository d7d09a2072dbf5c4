package experiments

import (
	"fmt"
	"io"
	"time"

	"pnsched/internal/core"
	"pnsched/internal/metrics"
	"pnsched/internal/rng"
	"pnsched/internal/units"
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
	res := &EvolveStudy{
		Profile:      p.Name,
		BatchTasks:   evolveStudyTasks,
		Procs:        evolveStudyProcs,
		Generations:  p.Generations,
		Repeats:      p.Repeats,
		Engines:      engines,
		Makespan:     make([]float64, len(engines)),
		WallMS:       make([]float64, len(engines)),
		FullEvalsGen: make([]float64, len(engines)),
		ModelledMS:   make([]float64, len(engines)),
		Identical:    true,
	}
	chrom := core.ChromosomeLen(evolveStudyTasks, evolveStudyProcs)
	for rep := 0; rep < p.Repeats; rep++ {
		seed := p.repeatSeed(99, rep)
		var bests []string
		for ei, engine := range engines {
			cfg := core.DefaultConfig()
			cfg.Generations = p.Generations
			cfg.NaiveEvaluation = engine == "naive"
			prob := p.batchProblem(seed, evolveStudyTasks, evolveStudyProcs, true)
			r := rng.New(seed ^ 0xe401e)
			start := time.Now()
			st := core.Evolve(prob, cfg, core.ListPopulation(prob, cfg.Population, r), units.Inf(), r)
			res.WallMS[ei] += time.Since(start).Seconds() * 1e3
			res.Makespan[ei] += float64(st.BestMakespan)
			res.FullEvalsGen[ei] += float64(st.GenesEvaluated) / float64(st.Result.Generations) / float64(chrom)
			res.ModelledMS[ei] += float64(st.ModelledCost) * 1e3
			bests = append(bests, fmt.Sprint(st.Result.Best))
		}
		if bests[0] != bests[1] {
			res.Identical = false
		}
	}
	for ei := range engines {
		res.Makespan[ei] /= float64(p.Repeats)
		res.WallMS[ei] /= float64(p.Repeats)
		res.FullEvalsGen[ei] /= float64(p.Repeats)
		res.ModelledMS[ei] /= float64(p.Repeats)
	}
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
