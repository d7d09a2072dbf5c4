package ga

import (
	"fmt"
	"sort"

	"pnsched/internal/rng"
)

// StopReason reports why a GA run terminated.
type StopReason int

// Stop reasons, in the order the engine checks them.
const (
	// StopMaxGenerations: the generation cap (1000 in the paper) was hit.
	StopMaxGenerations StopReason = iota
	// StopCallback: Config.Stop returned true — used by the scheduler to
	// abort evolution "if one of the processors becomes idle".
	StopCallback
)

// String implements fmt.Stringer.
func (s StopReason) String() string {
	switch s {
	case StopMaxGenerations:
		return "max-generations"
	case StopCallback:
		return "callback"
	default:
		return fmt.Sprintf("StopReason(%d)", int(s))
	}
}

// Config parametrises the engine. The defaults (applied by Run for zero
// fields) follow the paper: a micro-GA population of 20 and a cap of
// 1000 generations. The operator rates are the paper's and fixed:
// crossover breeds 80% of each next generation from roulette-selected
// pairs, and one swap mutation hits "a randomly chosen individual" per
// generation.
type Config struct {
	// PopulationSize is the number of individuals (default 20 — "a
	// micro GA ... which speeds up computation time without impacting
	// greatly on the final result").
	PopulationSize int
	// MaxGenerations caps evolution (default 1000 — "the quality of the
	// schedules returned with more than that number does not justify
	// the increased computation cost").
	MaxGenerations int
	// Crossover selects the permutation crossover operator; nil uses
	// the paper's cycle crossover (CX). PMX and OX are provided for
	// operator ablations. The engine hands it two slots of the next
	// generation to write the children into, and its own Scratch.
	Crossover Crossover
	// Elitism preserves the best individual across generations
	// (default true). The paper tracks "the individual with the lowest
	// makespan ... after each generation" and Fig. 3's monotone
	// improvement implies the best is never lost.
	Elitism bool
	// PostGeneration, when non-nil, runs after selection each
	// generation with the whole population; the scheduler uses it for
	// the §3.5 rebalancing heuristic. pop is a view of the engine's own
	// slots, valid until the hook returns: implementations may swap
	// symbols of an individual in place (preserving the permutation
	// property) but must neither replace an element of pop nor keep
	// any of it.
	PostGeneration func(pop []Chromosome, r *rng.RNG)
	// Stop, when non-nil, is polled once per generation with the
	// generation number and current best fitness; returning true aborts
	// evolution (the processor-went-idle condition).
	Stop func(gen int, bestFitness float64) bool
	// OnGeneration, when non-nil, observes each generation's best
	// individual — used to record Fig. 3's per-generation makespan
	// trajectories. best is a read-only view of the engine's
	// best-so-far slot, valid until the callback returns; Clone it to
	// keep it.
	OnGeneration func(gen int, best Chromosome, bestFitness float64)
}

func (c *Config) applyDefaults() {
	if c.PopulationSize == 0 {
		c.PopulationSize = 20
	}
	if c.MaxGenerations == 0 {
		c.MaxGenerations = 1000
	}
}

// Result reports a finished run.
type Result struct {
	Best        Chromosome
	BestFitness float64
	Generations int
	Reason      StopReason
	// Evaluations is the number of fitness computations performed.
	// With a SlotEvaluator, individuals whose fitness is known from
	// provenance (roulette clones, the elitism reinsert, children and
	// mutants the evaluator re-derived by delta) are not counted, so
	// this is smaller than population × generations. The evaluation
	// work in genes is the evaluator's to count, not the engine's.
	Evaluations int
}

// Engine exposes the generation loop of Run one step at a time, so
// callers can interleave evolution with outside work — the island-model
// runner (internal/island) advances several engines in parallel and
// exchanges elites between steps. An Engine is single-goroutine; wrap
// coordination around it, not inside it.
//
// The zero value is unusable until Reset starts a run on it; NewEngine
// is new(Engine) plus Reset. Run is the convenience wrapper that drives
// an Engine to completion, and NewEngine + Step reproduces Run exactly
// (same random sequence, same results).
//
// Ownership: an Engine owns every byte its generation loop touches.
// Reset lays the population out — the current generation's n slots,
// the next generation's n slots and the best-so-far, in one array — and
// from then on individuals are copied between slots that already exist,
// children are bred into them, and selection and crossover work in the
// engine's Scratch, so Step allocates nothing. The slots survive a
// Reset: a later run of the same or a smaller shape reuses them, and
// the Scratch, instead of laying them out again. What the engine passes
// to a callback (OnGeneration's best, PostGeneration's pop) is a view
// of those slots, valid until the callback returns; what it returns
// (Best, Result, Elites) is a clone the caller owns, and what it is
// given (the seeds, Inject's migrants) is copied in and never retained.
//
// Evaluation: the engine drives every evaluator through the slot
// protocol (see SlotEvaluator). A plain Evaluator runs under fresh,
// which keeps no provenance and so computes every slot every
// generation.
type Engine struct {
	cfg     Config
	slots   SlotEvaluator
	r       *rng.RNG
	arena   []int        // every slot's genes, kept across Reset
	pop     []Chromosome // current generation: n slots of the arena
	next    []Chromosome // the n slots the next generation is bred into
	fitness []float64
	scratch Scratch

	best        Chromosome // the arena's last slot
	bestFitness float64
	gen         int // completed generations
	evals       int

	done        bool
	reason      StopReason
	generations int // Result.Generations once done
}

// NewEngine initialises a GA over the initial population: the
// population is copied (callers keep their seeds), padded or trimmed to
// the configured size by cycling through the seeds, and evaluated once
// (generation 0). NewEngine panics if the initial population is empty
// or its chromosomes differ in length — the caller owns population
// construction (the paper seeds it with a list-scheduling heuristic),
// so either is a programming error.
func NewEngine(cfg Config, eval Evaluator, initial []Chromosome, r *rng.RNG) *Engine {
	e := new(Engine)
	e.Reset(cfg, eval, initial, r)
	return e
}

// Reset starts a new run on e exactly as NewEngine would build it — the
// same checks, the same copy of the seeds, the same generation 0 — and
// reuses e's slots, fitness vector and Scratch wherever they are large
// enough, so an engine kept between runs of one shape lays its
// population out only once. Everything the previous run handed out as a
// view is overwritten; its clones stay the caller's. initial must not
// alias e's own slots.
func (e *Engine) Reset(cfg Config, eval Evaluator, initial []Chromosome, r *rng.RNG) {
	cfg.applyDefaults()
	if len(initial) == 0 {
		panic("ga: empty initial population")
	}
	length := len(initial[0])
	for i, c := range initial {
		if len(c) != length {
			panic(fmt.Sprintf("ga: initial chromosome %d has length %d, chromosome 0 has %d", i, len(c), length))
		}
	}
	slots, ok := eval.(SlotEvaluator)
	if !ok {
		slots = fresh{eval}
	}

	// One array holds every slot: current generation, next generation,
	// best-so-far. Each slot's capacity ends where the next begins.
	n := cfg.PopulationSize
	*e = Engine{
		cfg: cfg, slots: slots, r: r,
		arena:   resize(e.arena, (2*n+1)*length),
		pop:     resize(e.pop, n),
		next:    resize(e.next, n),
		fitness: resize(e.fitness, n),
		scratch: e.scratch,
	}
	slot := func(k int) Chromosome { return e.arena[k*length : (k+1)*length : (k+1)*length] }
	for i := range e.pop {
		e.pop[i], e.next[i] = slot(i), slot(n+i)
		copy(e.pop[i], initial[i%len(initial)])
	}
	e.best = slot(2 * n)
	e.scratch.reserve(n, e.pop[0])
	e.slots.InitSlots(n)

	bestIdx := e.evaluate()
	copy(e.best, e.pop[bestIdx])
	e.bestFitness = e.fitness[bestIdx]
	e.slots.SaveBest(bestIdx)
	if cfg.OnGeneration != nil {
		cfg.OnGeneration(0, e.best, e.bestFitness)
	}
}

// resize returns s with length n, reusing its array when it has room;
// what the reused elements held is left for the caller to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// evaluate scores the whole population and returns the index of the
// fittest individual. Individuals whose fitness the slot evaluator
// knows from provenance are served from its cache.
func (e *Engine) evaluate() (bestIdx int) {
	for i, c := range e.pop {
		e.fitness[i] = e.score(i, c)
		if e.fitness[i] > e.fitness[bestIdx] {
			bestIdx = i
		}
	}
	return bestIdx
}

// score computes (or retrieves) the fitness of the individual in the
// given population slot, counting the evaluations computed.
func (e *Engine) score(slot int, c Chromosome) float64 {
	f, computed := e.slots.FitnessSlot(slot, c)
	if computed {
		e.evals++
	}
	return f
}

func (e *Engine) stop(generations int, reason StopReason) {
	e.done = true
	e.generations = generations
	e.reason = reason
}

// Step advances evolution by one generation: crossover, selection,
// mutation, the PostGeneration hook, elitism and re-evaluation. It
// returns false once a stopping condition holds (the generation cap or
// the Stop callback), after which further calls are no-ops.
func (e *Engine) Step() bool {
	if e.done {
		return false
	}
	gen := e.gen + 1
	if gen > e.cfg.MaxGenerations {
		e.stop(e.cfg.MaxGenerations, StopMaxGenerations)
		return false
	}
	if e.cfg.Stop != nil && e.cfg.Stop(gen, e.bestFitness) {
		e.stop(gen-1, StopCallback)
		return false
	}

	n := len(e.pop)
	e.slots.BeginGeneration()

	// Crossover: pair roulette-selected parents and breed each pair
	// into the next two free slots. The slot evaluator hears how each
	// child differs from the nearer of its parents, so it can re-derive
	// the child from that parent's cached state.
	filled := 0
	pairs := int(float64(n) * 0.8 / 2)
	cross := e.cfg.Crossover
	if cross == nil {
		cross = CX
	}
	parents := e.scratch.roulette(e.fitness, 2*pairs, e.r)
	for k := 0; k < pairs; k++ {
		pa, pb := parents[2*k], parents[2*k+1]
		cross(e.next[filled], e.next[filled+1], e.pop[pa], e.pop[pb], &e.scratch, e.r)
		e.deriveChildren(filled, pa, pb)
		filled += 2
	}
	// Fill the remainder by roulette-copying survivors (selection).
	// Copies inherit their parent's known fitness.
	for _, idx := range e.scratch.roulette(e.fitness, n-filled, e.r) {
		e.slots.DeriveClone(filled, idx)
		copy(e.next[filled], e.pop[idx])
		filled++
	}

	e.pop, e.next = e.next, e.pop
	e.slots.CommitGeneration()

	// Random mutation on a randomly chosen individual: SwapMutation,
	// unrolled so the swapped positions reach the slot evaluator for a
	// delta update.
	idx := e.r.Intn(n)
	if c := e.pop[idx]; len(c) >= 2 {
		i, j := swapPositions(len(c), e.r)
		c[i], c[j] = c[j], c[i]
		e.slots.SwapAt(idx, c, i, j)
	}

	if e.cfg.PostGeneration != nil {
		e.cfg.PostGeneration(e.pop, e.r)
	}

	// Elitism: reinsert the best-so-far over a random slot, carrying
	// its known fitness state.
	if e.cfg.Elitism {
		slot := e.r.Intn(n)
		copy(e.pop[slot], e.best)
		e.slots.RestoreBest(slot)
	}

	genBest := e.evaluate()
	if e.fitness[genBest] > e.bestFitness {
		e.bestFitness = e.fitness[genBest]
		copy(e.best, e.pop[genBest])
		e.slots.SaveBest(genBest)
	}
	e.gen = gen
	if e.cfg.OnGeneration != nil {
		e.cfg.OnGeneration(gen, e.best, e.bestFitness)
	}
	return true
}

// deriveChildren reports next-generation slots dst and dst+1, the
// children of current slots pa and pb, to the slot evaluator, each as a
// derivation of whichever parent it differs from at fewer positions (pa
// on a tie). The positions are the diff report the crossover left in
// the scratch, so CX, PMX and OX children all reach the evaluator the
// same way.
func (e *Engine) deriveChildren(dst, pa, pb int) {
	d := &e.scratch.diffs
	for k := 0; k < 2; k++ {
		src, changed := pa, d[2*k]
		if len(d[2*k+1]) < len(changed) {
			src, changed = pb, d[2*k+1]
		}
		e.slots.DeriveCross(dst+k, src, e.next[dst+k], changed)
	}
}

// Done reports whether a stopping condition has been reached.
func (e *Engine) Done() bool { return e.done }

// Generation returns the number of completed generations.
func (e *Engine) Generation() int { return e.gen }

// Best returns a clone of the best individual found so far and its
// fitness.
func (e *Engine) Best() (Chromosome, float64) {
	return e.best.Clone(), e.bestFitness
}

// Result summarises the run so far; after Step has returned false it is
// identical to what Run would have returned.
func (e *Engine) Result() Result {
	generations := e.generations
	if !e.done {
		generations = e.gen
	}
	return Result{
		Best:        e.best.Clone(),
		BestFitness: e.bestFitness,
		Generations: generations,
		Reason:      e.reason,
		Evaluations: e.evals,
	}
}

// Elites returns clones of the k fittest individuals of the current
// population, fittest first (ties resolve to the lower population
// index, keeping island migration deterministic). k is clamped to the
// population size.
func (e *Engine) Elites(k int) []Chromosome {
	n := len(e.pop)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return e.fitness[idx[a]] > e.fitness[idx[b]]
	})
	out := make([]Chromosome, k)
	for i := 0; i < k; i++ {
		out[i] = e.pop[idx[i]].Clone()
	}
	return out
}

// Inject replaces the len(migrants) least-fit individuals of the
// current population with copies of the migrants, re-evaluating them
// against this engine's evaluator (ties resolve to the lower population
// index). The best-so-far is updated if a migrant beats it. Inject is
// how island migration enters a population; it is deterministic and a
// no-op on a stopped engine. It panics if a migrant's length is not the
// population's.
func (e *Engine) Inject(migrants []Chromosome) {
	if e.done || len(migrants) == 0 {
		return
	}
	n := len(e.pop)
	if len(migrants) > n {
		migrants = migrants[:n]
	}
	for i, m := range migrants {
		if len(m) != len(e.best) {
			panic(fmt.Sprintf("ga: migrant %d has length %d, the population's chromosomes have %d", i, len(m), len(e.best)))
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return e.fitness[idx[a]] < e.fitness[idx[b]]
	})
	for i, m := range migrants {
		slot := idx[i]
		copy(e.pop[slot], m)
		e.slots.Invalidate(slot)
		e.fitness[slot] = e.score(slot, e.pop[slot])
		if e.fitness[slot] > e.bestFitness {
			e.bestFitness = e.fitness[slot]
			copy(e.best, e.pop[slot])
			e.slots.SaveBest(slot)
		}
	}
}

// Run evolves the initial population against the evaluator and returns
// the best individual found. The initial population is not modified.
// Run panics if the initial population is empty — the caller owns
// population construction (the paper seeds it with a list-scheduling
// heuristic), so an empty one is a programming error.
//
// Elitism note: defaults preserve the best individual, so best fitness
// is non-decreasing across generations.
//
// Run is NewEngine followed by Step to completion; use the Engine
// directly to interleave evolution with migration or other outside
// work, or to keep its slots for the next run (internal/core's pooled
// batch decisions Reset one engine instead).
func Run(cfg Config, eval Evaluator, initial []Chromosome, r *rng.RNG) Result { //pnanalyze:ok surface reference oracle: the one-call run the island and engine tests check step-wise runs against
	e := NewEngine(cfg, eval, initial, r)
	for e.Step() {
	}
	return e.Result()
}
