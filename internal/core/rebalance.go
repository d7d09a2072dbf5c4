package core

import (
	"sort"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// Rebalancer applies the paper's §3.5 rebalancing heuristic to
// chromosomes of one Problem. It keeps scratch buffers so repeated
// application inside the GA's generation loop is cheap; use one
// Rebalancer per goroutine.
//
// The rebalancer has two evaluation modes. Standalone (NewRebalancer),
// every candidate move is scored with a full completion-time
// computation. Bound to an IncrementalEvaluator (BindSlots), it reads
// the individual's cached completion times instead — the "before"
// fitness is already known, and a candidate swap re-derives only the
// two affected queues — with all work charged to the shared evaluator
// ledger. Both modes take bit-identical keep/revert decisions.
type Rebalancer struct {
	p      *Problem
	times  []units.Seconds
	ftimes []units.Seconds // separate scratch for fitness probes
	segs   []int           // scratch: segment (processor) index per chromosome position
	// Evals counts fitness evaluations performed by rebalancing, so
	// the scheduler can charge their cost alongside the GA's own. In
	// slot mode a candidate probe counts once (the cached "before"
	// needs no work).
	Evals int

	// charge, when non-nil, bills full-evaluation gene work in
	// standalone mode (set by Evolve's naive path so the §3.4 budget
	// sees rebalancing cost).
	charge func(genes int)
	// ev, when non-nil, is the shared incremental evaluator (slot
	// mode).
	ev *IncrementalEvaluator
}

// NewRebalancer returns a standalone Rebalancer for the problem.
func NewRebalancer(p *Problem) *Rebalancer {
	return &Rebalancer{
		p:      p,
		times:  make([]units.Seconds, p.M),
		ftimes: make([]units.Seconds, p.M),
	}
}

// BindSlots switches the rebalancer to slot mode: candidate moves are
// scored against ev's cached completion-time vectors and all work is
// charged to ev's gene ledger. Use StepSlot/ApplySlot afterwards.
func (rb *Rebalancer) BindSlots(ev *IncrementalEvaluator) {
	rb.ev = ev
}

// fitness evaluates c from scratch without allocating (standalone
// mode).
func (rb *Rebalancer) fitness(c ga.Chromosome) float64 {
	rb.Evals++
	if rb.charge != nil {
		rb.charge(len(c))
	}
	times := rb.p.CompletionTimes(c, rb.ftimes)
	return fitnessFromError(rb.p.relativeErrorFrom(times))
}

// maxProbes is the paper's bound: "We only allow a maximum of 5 random
// searches for a smaller task."
const maxProbes = 5

// Step performs one rebalancing attempt on c in place: select the most
// heavily loaded processor (largest predicted completion time), probe up
// to five times for a task on another processor that is smaller than a
// task on the heavy one, swap the pair, and keep the result only if the
// schedule's fitness improved. It reports whether a swap was kept.
func (rb *Rebalancer) Step(c ga.Chromosome, r *rng.RNG) bool {
	p := rb.p

	// Segment every position and find the heavy processor.
	if cap(rb.segs) < len(c) {
		rb.segs = make([]int, len(c))
	}
	segs := rb.segs[:len(c)]
	seg := 0
	for i, sym := range c {
		if sym < 0 {
			seg++
			segs[i] = -1 // delimiter positions are not swappable
			continue
		}
		segs[i] = seg
	}

	times := p.CompletionTimes(c, rb.times)
	heavy := 0
	for j := 1; j < p.M; j++ {
		if times[j] > times[heavy] {
			heavy = j
		}
	}

	// Collect task positions on the heavy processor and elsewhere.
	var heavyPos, otherPos []int
	for i, s := range segs {
		switch {
		case s == heavy:
			heavyPos = append(heavyPos, i)
		case s >= 0:
			otherPos = append(otherPos, i)
		}
	}
	if len(heavyPos) == 0 || len(otherPos) == 0 {
		return false
	}

	for probe := 0; probe < maxProbes; probe++ {
		hi := heavyPos[r.Intn(len(heavyPos))]
		oi := otherPos[r.Intn(len(otherPos))]
		if p.sizeOf(c[oi]) >= p.sizeOf(c[hi]) {
			continue // the probed task is not smaller; search again
		}
		before := rb.fitness(c)
		c[hi], c[oi] = c[oi], c[hi]
		after := rb.fitness(c)
		if after > before {
			return true
		}
		c[hi], c[oi] = c[oi], c[hi] // revert: not fitter
		return false
	}
	return false
}

// Apply runs Step n times on c, returning how many swaps were kept.
func (rb *Rebalancer) Apply(c ga.Chromosome, n int, r *rng.RNG) int {
	kept := 0
	for i := 0; i < n; i++ {
		if rb.Step(c, r) {
			kept++
		}
	}
	return kept
}

// StepSlot is Step against the bound evaluator's cached state for the
// individual in the given population slot: the heavy processor comes
// from the cached completion times, the "before" fitness is the cached
// one, and a candidate swap re-derives only the two affected queues.
// RNG consumption and the keep/revert decision are identical to Step's
// (same draws, bit-identical fitness values), so slot-mode evolution
// reproduces standalone-mode evolution exactly.
func (rb *Rebalancer) StepSlot(slot int, c ga.Chromosome, r *rng.RNG) bool {
	p, ev := rb.p, rb.ev
	if ev.ensureValid(slot, c) {
		// An individual reaching the rebalancer unscored — a crossover
		// child or swap mutant that moved a delimiter, a custom-mutated
		// one: its one full evaluation happens here instead of at the
		// engine's evaluation sweep.
		rb.Evals++
	}
	s := ev.slot(slot)

	heavy, top := 0, s.times[0]
	for j, t := range s.times {
		if t > top {
			heavy, top = j, t
		}
	}

	// Per-segment task counts replace Step's position lists: segments
	// are contiguous spans, so the k-th task position on (or off) the
	// heavy processor is recovered arithmetically, preserving Step's
	// draw distribution and RNG consumption. A probe knows both queues
	// it touches: heavy, and the one otherTask finds.
	heavyLo, heavyHi := segmentSpan(c, s.delims, heavy)
	heavyLen := heavyHi - heavyLo
	otherLen := len(c) - len(s.delims) - heavyLen
	if heavyLen == 0 || otherLen == 0 {
		return false
	}

	for probe := 0; probe < maxProbes; probe++ {
		hi := heavyLo + r.Intn(heavyLen)
		oi, oq := otherTask(s.delims, heavy, heavyLo, heavyLen, r.Intn(otherLen))
		if p.sizeOf(c[oi]) >= p.sizeOf(c[hi]) {
			continue // the probed task is not smaller; search again
		}
		before := s.fitness
		c[hi], c[oi] = c[oi], c[hi]
		ftimes := append(rb.ftimes[:0], s.times...)
		ftimes[heavy] = ev.recomputeSegment(c, s.delims, heavy)
		ftimes[oq] = ev.recomputeSegment(c, s.delims, oq)
		after := fitnessFromError(p.relativeErrorFrom(ftimes))
		rb.Evals++
		if after > before {
			s.times[heavy], s.times[oq] = ftimes[heavy], ftimes[oq]
			s.fitness = after
			return true
		}
		c[hi], c[oi] = c[oi], c[hi] // revert: not fitter
		return false
	}
	return false
}

// otherTask maps k — an index into the increasing sequence of task
// positions outside queue heavy, whose heavyLen tasks start at position
// heavyLo — to that task's position and queue. Skipping the heavy queue
// makes k the g-th task of the whole chromosome; delims[d]−d tasks lie
// before delimiter d, so one search over the delimiters finds the
// queue, which is also the number of delimiters before the task.
func otherTask(delims []int, heavy, heavyLo, heavyLen, k int) (pos, queue int) {
	g := k
	if g >= heavyLo-heavy { // the tasks on the queues before the heavy one
		g += heavyLen
	}
	queue = sort.Search(len(delims), func(d int) bool { return delims[d]-d > g })
	return g + queue, queue
}

// ApplySlot runs StepSlot n times, returning how many swaps were kept.
func (rb *Rebalancer) ApplySlot(slot int, c ga.Chromosome, n int, r *rng.RNG) int {
	kept := 0
	for i := 0; i < n; i++ {
		if rb.StepSlot(slot, c, r) {
			kept++
		}
	}
	return kept
}
