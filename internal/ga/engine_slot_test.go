package ga

import (
	"testing"

	"pnsched/internal/rng"
)

// cachingSlotEval is a minimal SlotEvaluator double: it caches fitness
// (not domain state) per slot, so provenance-served values come from
// the cache and everything else recomputes via the inner evaluator.
// It lets the engine's slot protocol be tested independently of
// internal/core's completion-time machinery.
type cachingSlotEval struct {
	inner    Evaluator
	cur, nxt []slotFit
	best     slotFit
	genes    int
	computed int
}

type slotFit struct {
	f  float64
	ok bool
}

func (e *cachingSlotEval) Fitness(c Chromosome) float64 {
	e.genes += len(c)
	return e.inner.Fitness(c)
}

func (e *cachingSlotEval) GenesEvaluated() int { return e.genes }

func (e *cachingSlotEval) InitSlots(n int) {
	e.cur = make([]slotFit, n)
	e.nxt = make([]slotFit, n)
}

func (e *cachingSlotEval) BeginGeneration() {
	for i := range e.nxt {
		e.nxt[i].ok = false
	}
}

// DeriveCross serves an unchanged child from its parent's cache and
// recomputes any other.
func (e *cachingSlotEval) DeriveCross(dst, src int, c Chromosome, changed []int) {
	e.nxt[dst] = slotFit{f: e.cur[src].f, ok: e.cur[src].ok && len(changed) == 0}
}

func (e *cachingSlotEval) DeriveClone(dst, src int) { e.nxt[dst] = e.cur[src] }
func (e *cachingSlotEval) CommitGeneration()        { e.cur, e.nxt = e.nxt, e.cur }

func (e *cachingSlotEval) SwapAt(slot int, c Chromosome, i, j int) { e.cur[slot].ok = false }
func (e *cachingSlotEval) Invalidate(slot int)                     { e.cur[slot].ok = false }

func (e *cachingSlotEval) FitnessSlot(slot int, c Chromosome) (float64, bool) {
	if e.cur[slot].ok {
		return e.cur[slot].f, false
	}
	e.cur[slot] = slotFit{f: e.Fitness(c), ok: true}
	e.computed++
	return e.cur[slot].f, true
}

func (e *cachingSlotEval) SaveBest(slot int)    { e.best = e.cur[slot] }
func (e *cachingSlotEval) RestoreBest(slot int) { e.cur[slot] = e.best }

// TestSlotEvaluatorMatchesPlainRun: fitness provenance may change how
// much is evaluated, never what evolves — a Run driven by the slot
// double must reproduce the plain evaluator's populations exactly
// (same best, fitness, generations) with strictly fewer evaluations.
func TestSlotEvaluatorMatchesPlainRun(t *testing.T) {
	cfg := Config{MaxGenerations: 150, PopulationSize: 14}
	plain := func() Result {
		r := rng.New(31)
		return Run(cfg, sortednessEvaluator{}, randomPopulation(16, 14, r), r)
	}()
	slotted := func() Result {
		r := rng.New(31)
		return Run(cfg, &cachingSlotEval{inner: sortednessEvaluator{}}, randomPopulation(16, 14, r), r)
	}()
	if !plain.Best.Equal(slotted.Best) || plain.BestFitness != slotted.BestFitness ||
		plain.Generations != slotted.Generations || plain.Reason != slotted.Reason {
		t.Errorf("slot-evaluated run diverged from plain run: %+v vs %+v", plain, slotted)
	}
	if slotted.Evaluations >= plain.Evaluations {
		t.Errorf("slot evaluator computed %d fitnesses, plain %d — provenance saved nothing",
			slotted.Evaluations, plain.Evaluations)
	}
	if slotted.GenesEvaluated >= plain.GenesEvaluated {
		t.Errorf("slot genes %d, plain genes %d", slotted.GenesEvaluated, plain.GenesEvaluated)
	}
}

// TestGenesEvaluatedPlainEvaluator: without a GeneCounter, the engine
// bills evaluations × chromosome length.
func TestGenesEvaluatedPlainEvaluator(t *testing.T) {
	r := rng.New(33)
	res := Run(Config{MaxGenerations: 20, PopulationSize: 8}, sortednessEvaluator{}, randomPopulation(10, 8, r), r)
	if want := res.Evaluations * 10; res.GenesEvaluated != want {
		t.Errorf("GenesEvaluated = %d, want evaluations × length = %d", res.GenesEvaluated, want)
	}
}

// TestCrossoverDisabledSentinel: CrossoverFraction < 0 must disable
// crossover outright, while 0 still selects the paper default — the
// regression the sentinel convention exists for.
func TestCrossoverDisabledSentinel(t *testing.T) {
	runWith := func(frac float64) int {
		calls := 0
		counting := func(c1, c2, a, b Chromosome, s *Scratch, r *rng.RNG) {
			calls++
			CX(c1, c2, a, b, s, r)
		}
		r := rng.New(34)
		Run(Config{MaxGenerations: 10, PopulationSize: 10, CrossoverFraction: frac, Crossover: counting},
			sortednessEvaluator{}, randomPopulation(12, 10, r), r)
		return calls
	}
	if calls := runWith(-1); calls != 0 {
		t.Errorf("CrossoverFraction -1 still performed %d crossovers", calls)
	}
	if calls := runWith(0); calls != 10*int(10*0.8/2) {
		t.Errorf("CrossoverFraction 0 (default 0.8) performed %d crossovers, want %d",
			calls, 10*int(10*0.8/2))
	}
}

// TestMutationDisabledSentinel: MutationsPerGeneration < 0 must
// disable mutation, while 0 still selects the paper default of one.
func TestMutationDisabledSentinel(t *testing.T) {
	runWith := func(muts int) int {
		calls := 0
		counting := func(c Chromosome, r *rng.RNG) {
			calls++
			SwapMutation(c, r)
		}
		r := rng.New(35)
		Run(Config{MaxGenerations: 10, PopulationSize: 10, MutationsPerGeneration: muts, Mutate: counting},
			sortednessEvaluator{}, randomPopulation(12, 10, r), r)
		return calls
	}
	if calls := runWith(-1); calls != 0 {
		t.Errorf("MutationsPerGeneration -1 still performed %d mutations", calls)
	}
	if calls := runWith(0); calls != 10 {
		t.Errorf("MutationsPerGeneration 0 (default 1) performed %d mutations, want 10", calls)
	}
}
