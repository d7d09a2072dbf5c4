package ga

// This file defines the optional evaluator extensions behind the
// incremental fitness engine. The generation loop derives every new
// population from individuals it has already scored — roulette-cloned
// survivors are copies, the elitism reinsert is the best-so-far, a
// crossover child differs from the nearer of its parents at a few
// positions (often none, once the population converges) and a swap
// mutant differs from its base at exactly two — yet a plain Evaluator
// forces the engine to re-score everything from scratch every
// generation. A SlotEvaluator receives that provenance instead: the
// engine tells it how every slot of the next population was derived,
// and the evaluator keeps whatever per-slot cached state
// (completion-time vectors, in internal/core) lets it serve known
// fitness values without recomputing and re-score children and mutants
// by delta.
//
// The contract is strictly observational: a SlotEvaluator must return
// bit-identical fitness values to what Fitness would compute on the
// same chromosome, so an engine driven by one produces byte-identical
// populations, best individuals and fitness trajectories to an engine
// driven by a plain Evaluator (the equivalence is asserted by tests in
// internal/core). Only the amount of evaluation work differs, and the
// evaluator is the one place that work is counted: the §3.4 budget
// model reads the genes actually evaluated from the evaluator it built,
// not a count of Fitness calls from the engine.

// SlotEvaluator is an optional Evaluator extension for engines that
// track fitness provenance. The engine drives the slot protocol around
// the generation loop for every evaluator — NewEngine runs a plain
// Evaluator under fresh, which keeps no provenance:
//
//   - InitSlots(n) once, before the initial population is scored;
//   - each generation: BeginGeneration, then DeriveCross(dst, src, c,
//     changed) for every crossover child and DeriveClone(dst, src) for
//     every roulette-cloned survivor, then CommitGeneration when the
//     new population replaces the old one;
//   - SwapAt after the swap mutation (the two exchanged positions are
//     known), Invalidate after an opaque edit (an injected migrant);
//   - RestoreBest when elitism reinserts the best-so-far, SaveBest
//     whenever a slot's individual becomes the new best-so-far;
//   - FitnessSlot for every slot at evaluation time.
//
// The PostGeneration hook runs between CommitGeneration and the
// elitism reinsert; hook implementations that edit individuals in
// place must keep the evaluator's slot state coherent themselves
// (internal/core's rebalancer shares the evaluator object and updates
// it directly) or call Invalidate.
//
// A SlotEvaluator instance belongs to exactly one Engine: slot indices
// are engine population slots.
type SlotEvaluator interface {
	Evaluator

	// InitSlots sizes the per-slot cache for a population of n.
	InitSlots(n int)
	// BeginGeneration opens the next generation's slot buffer.
	BeginGeneration()
	// DeriveCross marks next-generation slot dst as a crossover child
	// c of current slot src: changed lists, in increasing order, the
	// positions where c differs from src's chromosome (empty: c is a
	// copy of it). The evaluator may re-derive c's state from src's
	// instead of evaluating c from scratch. changed is the engine's
	// scratch, valid until the call returns.
	DeriveCross(dst, src int, c Chromosome, changed []int)
	// DeriveClone marks next-generation slot dst as a copy of current
	// slot src, inheriting src's cached fitness state.
	DeriveClone(dst, src int)
	// CommitGeneration replaces the current generation's slot state
	// with the one built since BeginGeneration.
	CommitGeneration()

	// SwapAt records that positions i and j of slot's chromosome were
	// exchanged (c is the chromosome after the swap), letting the
	// evaluator delta-update cached state instead of discarding it.
	SwapAt(slot int, c Chromosome, i, j int)
	// Invalidate discards slot's cached state after an opaque edit.
	Invalidate(slot int)

	// FitnessSlot scores the chromosome occupying slot. It must return
	// exactly the value Fitness(c) would; computed reports whether any
	// evaluation work was performed (false: served from cache).
	FitnessSlot(slot int, c Chromosome) (fitness float64, computed bool)

	// SaveBest snapshots slot's cached state as the best-so-far, and
	// RestoreBest installs that snapshot back into a slot (the elitism
	// reinsert). SaveBest is called only for slots FitnessSlot has just
	// scored.
	SaveBest(slot int)
	RestoreBest(slot int)
}

// fresh is the SlotEvaluator NewEngine runs a plain Evaluator under. It
// keeps no provenance: every FitnessSlot computes, and every other slot
// call is a no-op.
type fresh struct{ Evaluator }

func (f fresh) FitnessSlot(_ int, c Chromosome) (float64, bool) { return f.Fitness(c), true }

func (fresh) InitSlots(int)                           {}
func (fresh) BeginGeneration()                        {}
func (fresh) DeriveCross(int, int, Chromosome, []int) {}
func (fresh) DeriveClone(int, int)                    {}
func (fresh) CommitGeneration()                       {}
func (fresh) SwapAt(int, Chromosome, int, int)        {}
func (fresh) Invalidate(int)                          {}
func (fresh) SaveBest(int)                            {}
func (fresh) RestoreBest(int)                         {}
