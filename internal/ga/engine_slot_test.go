package ga

import (
	"slices"
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
	if !slices.Equal(plain.Best, slotted.Best) || plain.BestFitness != slotted.BestFitness ||
		plain.Generations != slotted.Generations || plain.Reason != slotted.Reason {
		t.Errorf("slot-evaluated run diverged from plain run: %+v vs %+v", plain, slotted)
	}
	if slotted.Evaluations >= plain.Evaluations {
		t.Errorf("slot evaluator computed %d fitnesses, plain %d — provenance saved nothing",
			slotted.Evaluations, plain.Evaluations)
	}
}

// TestPlainEvaluatorRunsFresh pins the two ways NewEngine drives an
// evaluator. A plain Evaluator keeps no provenance, so every slot is
// scored every generation: a run computes exactly population ×
// (generations + 1) fitnesses. A SlotEvaluator is driven as it is, not
// wrapped: its own counters see every computation the engine reports.
func TestPlainEvaluatorRunsFresh(t *testing.T) {
	const length, pop, gens = 10, 8, 20
	cfg := Config{MaxGenerations: gens, PopulationSize: pop}

	r := rng.New(33)
	plain := Run(cfg, sortednessEvaluator{}, randomPopulation(length, pop, r), r)
	if want := pop * (gens + 1); plain.Evaluations != want {
		t.Errorf("plain run computed %d fitnesses, want population × (generations + 1) = %d", plain.Evaluations, want)
	}

	r = rng.New(33)
	ev := &cachingSlotEval{inner: sortednessEvaluator{}}
	slotted := Run(cfg, ev, randomPopulation(length, pop, r), r)
	if ev.computed != slotted.Evaluations || ev.genes != length*slotted.Evaluations {
		t.Errorf("engine reports %d evaluations; the slot double computed %d and billed %d genes, want %d and %d",
			slotted.Evaluations, ev.computed, ev.genes, slotted.Evaluations, length*slotted.Evaluations)
	}
	if slotted.Evaluations >= plain.Evaluations {
		t.Errorf("slot double computed %d fitnesses, as many as the plain run's %d: it was wrapped", slotted.Evaluations, plain.Evaluations)
	}
}
