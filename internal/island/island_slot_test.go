package island

import (
	"context"
	"slices"
	"testing"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
)

// slotSortedness is a minimal ga.SlotEvaluator over the sortedness
// fitness: it caches fitness per population slot so provenance-served
// individuals (roulette clones, unchanged crossover children, the
// elitism reinsert) are not re-scored. One instance per island, as the
// SlotEvaluator contract requires.
type slotSortedness struct {
	inner    sortedness
	cur, nxt []slotFitness
	best     slotFitness
}

type slotFitness struct {
	f  float64
	ok bool
}

func (e *slotSortedness) Fitness(c ga.Chromosome) float64 { return e.inner.Fitness(c) }

func (e *slotSortedness) InitSlots(n int) {
	e.cur = make([]slotFitness, n)
	e.nxt = make([]slotFitness, n)
}

func (e *slotSortedness) BeginGeneration() {
	for i := range e.nxt {
		e.nxt[i].ok = false
	}
}

// DeriveCross serves an unchanged child from its parent's cache and
// recomputes any other.
func (e *slotSortedness) DeriveCross(dst, src int, c ga.Chromosome, changed []int) {
	e.nxt[dst] = slotFitness{f: e.cur[src].f, ok: e.cur[src].ok && len(changed) == 0}
}

func (e *slotSortedness) DeriveClone(dst, src int) { e.nxt[dst] = e.cur[src] }
func (e *slotSortedness) CommitGeneration()        { e.cur, e.nxt = e.nxt, e.cur }

func (e *slotSortedness) SwapAt(slot int, c ga.Chromosome, i, j int) { e.cur[slot].ok = false }
func (e *slotSortedness) Invalidate(slot int)                        { e.cur[slot].ok = false }

func (e *slotSortedness) FitnessSlot(slot int, c ga.Chromosome) (float64, bool) {
	if e.cur[slot].ok {
		return e.cur[slot].f, false
	}
	e.cur[slot] = slotFitness{f: e.Fitness(c), ok: true}
	return e.cur[slot].f, true
}

func (e *slotSortedness) SaveBest(slot int)    { e.best = e.cur[slot] }
func (e *slotSortedness) RestoreBest(slot int) { e.cur[slot] = e.best }

// slotSetup is uniformSetup with a fresh slot evaluator per island.
func slotSetup(cfg ga.Config, symbols int) func(int, *rng.RNG) Setup {
	return func(_ int, r *rng.RNG) Setup {
		return Setup{GA: cfg, Eval: &slotSortedness{}, Initial: randomPopulation(symbols, cfg.PopulationSize, r)}
	}
}

// TestSlotEvaluatedIslandsMatchPlain: provenance-tracked islands —
// including migration's Inject path — must reproduce plain-evaluated
// islands byte-identically, with fewer evaluations. Under -race (the
// CI default) this doubles as the concurrency check on the incremental
// machinery: N engines with per-island slot caches, stepping
// concurrently between migration barriers.
func TestSlotEvaluatedIslandsMatchPlain(t *testing.T) {
	cfg := Config{Islands: 4, MigrationInterval: 5, Migrants: 2}
	gaCfg := ga.Config{PopulationSize: 10, MaxGenerations: 80}
	plain := Run(context.Background(), cfg, uniformSetup(gaCfg, 18), rng.New(99))
	slotted := Run(context.Background(), cfg, slotSetup(gaCfg, 18), rng.New(99))

	if !slices.Equal(plain.Best, slotted.Best) || plain.BestFitness != slotted.BestFitness ||
		plain.BestIsland != slotted.BestIsland || plain.Generations != slotted.Generations ||
		plain.Rounds != slotted.Rounds || plain.Migrated != slotted.Migrated {
		t.Errorf("slot-evaluated islands diverged from plain ones: %+v vs %+v", plain, slotted)
	}
	if slotted.Evaluations >= plain.Evaluations {
		t.Errorf("slot islands computed %d fitnesses, plain %d — provenance saved nothing",
			slotted.Evaluations, plain.Evaluations)
	}
}

// TestPlainIslandsEvaluateEverySlot: a plain evaluator keeps no
// provenance, so each island scores its whole population every
// generation, and migration adds exactly one evaluation per migrant
// injected.
func TestPlainIslandsEvaluateEverySlot(t *testing.T) {
	cfg := Config{Islands: 3, MigrationInterval: 4, Migrants: 2}
	gaCfg := ga.Config{PopulationSize: 8, MaxGenerations: 30}
	res := Run(context.Background(), cfg, uniformSetup(gaCfg, 12), rng.New(17))
	if res.Migrated == 0 {
		t.Fatal("no migrant was injected")
	}
	want := res.Migrated
	for i, ir := range res.Islands {
		if ir.Generations != gaCfg.MaxGenerations {
			t.Fatalf("island %d stopped at generation %d, want %d", i, ir.Generations, gaCfg.MaxGenerations)
		}
		want += gaCfg.PopulationSize * (ir.Generations + 1)
	}
	if res.Evaluations != want {
		t.Errorf("islands computed %d fitnesses, want population × (generations + 1) per island plus %d migrants = %d",
			res.Evaluations, res.Migrated, want)
	}
}

// TestStopIsIslandLocal: an island's GA.Stop must stop its own island
// deterministically without cancelling the rest mid-round — the
// remaining islands run on to their generation cap and the run reports
// the callback reason.
func TestStopIsIslandLocal(t *testing.T) {
	cfg := Config{Islands: 3, MigrationInterval: 4, Migrants: -1} // no migration: islands stay independent
	setup := func(i int, r *rng.RNG) Setup {
		gaCfg := ga.Config{PopulationSize: 8, MaxGenerations: 40}
		if i == 1 {
			gaCfg.Stop = func(gen int, _ float64) bool { return gen > 10 }
		}
		return Setup{GA: gaCfg, Eval: sortedness{}, Initial: randomPopulation(12, 8, r)}
	}
	res := Run(context.Background(), cfg, setup, rng.New(41))
	if got := res.Islands[1]; got.Reason != ga.StopCallback || got.Generations != 10 {
		t.Errorf("stopped island: reason %v generations %d, want callback at 10",
			got.Reason, got.Generations)
	}
	for _, i := range []int{0, 2} {
		if got := res.Islands[i]; got.Reason != ga.StopMaxGenerations || got.Generations != 40 {
			t.Errorf("island %d: reason %v generations %d, want max-generations at 40 (the stop leaked)",
				i, got.Reason, got.Generations)
		}
	}
	if res.Reason != ga.StopCallback {
		t.Errorf("run reason = %v, want callback escalated", res.Reason)
	}
}
