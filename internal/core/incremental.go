package core

import (
	"sort"

	"pnsched/internal/ga"
	"pnsched/internal/units"
)

// IncrementalEvaluator is the incremental fitness engine every GA run
// scores with: a ga.SlotEvaluator caching, per population
// slot, the chromosome's completion-time vector, its delimiter
// positions and its fitness. Provenance reported by the GA engine
// keeps the caches coherent — roulette clones and the elitism reinsert
// inherit their state outright, a crossover child starts from the
// nearer parent's state and re-derives only the queues holding a task
// it moved, and a swap of two task symbols re-derives only the two
// affected processor queues (O(queue) work instead of O(genes)),
// because per-queue completion times depend only on that queue's
// contents (§3.2's Cⱼ) and are computed segment-locally, so untouched
// segments keep bit-identical values. Only a child or mutant that moved
// a delimiter — re-partitioning the queues — is scored in full.
//
// The evaluator is the single gene-work ledger of a run: every full or
// delta evaluation — including the §3.5 rebalancer's candidate probes,
// which share the evaluator through Rebalancer.BindSlots — charges the
// positions it rescans to GenesEvaluated, which the §3.4 budget model
// bills via Config.CostPerGene. A probe StepSlot rejects in O(1)
// without rescanning is charged the two queues it prices, as if
// rescanned: the ledger models the §3.4 budget rather than counting the
// host's work, so a screen that changes no decision changes no bill.
//
// Determinism guarantee: all cached values are produced by the same
// segment-local arithmetic CompletionTimes uses, so a GA driven by an
// IncrementalEvaluator returns byte-identical best schedules and
// fitness trajectories to one that scores every individual from
// scratch (asserted by TestIncrementalMatchesNaiveEvolve). One evaluator
// serves one engine on one goroutine; island runs build one per
// island.
type IncrementalEvaluator struct {
	p        *Problem
	cur, nxt []slotState
	best     slotState
	genes    int

	// The arrays InitSlots carves the slot states from, kept so a
	// pooled evaluator serves the next run without laying them out
	// again.
	states []slotState
	times  []units.Seconds
	delims []int
}

// slotState is one individual's cached evaluation: its per-processor
// completion times, the sorted delimiter positions of its chromosome
// (the segment index, for delta updates), and its fitness.
type slotState struct {
	times   []units.Seconds
	delims  []int
	fitness float64
	valid   bool
}

// copyFrom deep-copies src into s, reusing s's buffers.
func (s *slotState) copyFrom(src *slotState) {
	s.valid = src.valid
	if !src.valid {
		return
	}
	s.times = append(s.times[:0], src.times...)
	s.delims = append(s.delims[:0], src.delims...)
	s.fitness = src.fitness
}

// NewIncrementalEvaluator returns an incremental evaluator bound to
// the problem.
func NewIncrementalEvaluator(p *Problem) *IncrementalEvaluator {
	return &IncrementalEvaluator{p: p}
}

// bind points a pooled evaluator at the next run's problem with its
// gene ledger zeroed; the engine's InitSlots then resets every slot.
func (ev *IncrementalEvaluator) bind(p *Problem) {
	ev.p, ev.genes = p, 0
}

// GenesEvaluated is the lane's gene ledger: cumulative evaluation work
// in chromosome positions scanned, across the engine and every hook
// sharing this evaluator. The engine keeps no count of its own.
func (ev *IncrementalEvaluator) GenesEvaluated() int { return ev.genes }

// Fitness implements ga.Evaluator with a plain (uncached) full
// evaluation. The GA engine uses the slot protocol instead; this path
// serves direct callers and still charges its work.
func (ev *IncrementalEvaluator) Fitness(c ga.Chromosome) float64 {
	ev.genes += len(c)
	return fitnessFromError(ev.p.relativeErrorFrom(ev.p.CompletionTimes(c, nil)))
}

// InitSlots implements ga.SlotEvaluator: every slot state — the n
// current, the n next-generation and the best-so-far — gets its M
// completion times and room for M−1 delimiter positions here, once per
// run, from one backing array each, so no evaluation allocates. The
// arrays are reused when the previous run left them large enough, and
// every state starts invalid.
func (ev *IncrementalEvaluator) InitSlots(n int) {
	m := ev.p.M
	ev.times = resize(ev.times, (2*n+1)*m)
	ev.delims = resize(ev.delims, (2*n+1)*(m-1))
	ev.states = resize(ev.states, 2*n+1)
	for k := range ev.states {
		ev.states[k] = slotState{
			times:  ev.times[k*m : (k+1)*m : (k+1)*m],
			delims: ev.delims[k*(m-1) : k*(m-1) : (k+1)*(m-1)],
		}
	}
	states := ev.states
	ev.cur, ev.nxt, ev.best = states[:n:n], states[n:2*n:2*n], states[2*n]
}

// BeginGeneration implements ga.SlotEvaluator.
func (ev *IncrementalEvaluator) BeginGeneration() {
	for i := range ev.nxt {
		ev.nxt[i].valid = false
	}
}

// DeriveCross implements ga.SlotEvaluator: a crossover child starts
// from its parent's cached state, and only the queues holding a changed
// task are re-derived, segment-locally — an unchanged child is a clone.
// A changed position that holds a delimiter in either chromosome
// re-partitions the queues, so that child is left to a full evaluation.
// Child and parent hold the same symbols across the changed positions,
// so a delimiter there in either is one in the child.
func (ev *IncrementalEvaluator) DeriveCross(dst, src int, c ga.Chromosome, changed []int) {
	s, parent := &ev.nxt[dst], &ev.cur[src]
	s.valid = false
	if !parent.valid {
		return
	}
	for _, pos := range changed {
		if c[pos] < 0 {
			return
		}
	}
	s.copyFrom(parent)
	if len(changed) == 0 {
		return
	}
	delims, seg, last := s.delims, 0, -1
	for _, pos := range changed {
		for seg < len(delims) && delims[seg] < pos {
			seg++
		}
		if seg != last {
			s.times[seg] = ev.recomputeSegment(c, delims, seg)
			last = seg
		}
	}
	s.fitness = fitnessFromError(ev.p.relativeErrorFrom(s.times))
}

// DeriveClone implements ga.SlotEvaluator: a roulette-cloned survivor
// inherits its parent's completion times and fitness.
func (ev *IncrementalEvaluator) DeriveClone(dst, src int) {
	ev.nxt[dst].copyFrom(&ev.cur[src])
}

// CommitGeneration implements ga.SlotEvaluator.
func (ev *IncrementalEvaluator) CommitGeneration() {
	ev.cur, ev.nxt = ev.nxt, ev.cur
}

// Invalidate implements ga.SlotEvaluator.
func (ev *IncrementalEvaluator) Invalidate(slot int) {
	ev.cur[slot].valid = false
}

// SwapAt implements ga.SlotEvaluator: after two task symbols swap, the
// two affected queues are re-derived segment-locally; a moved
// delimiter re-partitions the chromosome, so the cache is dropped and
// the next FitnessSlot recomputes in full.
func (ev *IncrementalEvaluator) SwapAt(slot int, c ga.Chromosome, i, j int) {
	s := &ev.cur[slot]
	if !s.valid {
		return
	}
	if c[i] < 0 || c[j] < 0 {
		s.valid = false
		return
	}
	a := segmentOf(s.delims, i)
	b := segmentOf(s.delims, j)
	s.times[a] = ev.recomputeSegment(c, s.delims, a)
	if b != a {
		s.times[b] = ev.recomputeSegment(c, s.delims, b)
	}
	s.fitness = fitnessFromError(ev.p.relativeErrorFrom(s.times))
}

// FitnessSlot implements ga.SlotEvaluator.
func (ev *IncrementalEvaluator) FitnessSlot(slot int, c ga.Chromosome) (float64, bool) {
	s := &ev.cur[slot]
	if s.valid {
		return s.fitness, false
	}
	ev.fullEval(s, c)
	return s.fitness, true
}

// SaveBest implements ga.SlotEvaluator.
func (ev *IncrementalEvaluator) SaveBest(slot int) {
	ev.best.copyFrom(&ev.cur[slot])
}

// RestoreBest implements ga.SlotEvaluator.
func (ev *IncrementalEvaluator) RestoreBest(slot int) {
	ev.cur[slot].copyFrom(&ev.best)
}

// BestMakespan returns the predicted makespan of the best-so-far
// individual from its cached completion times — the observation
// Evolve's per-generation §3.4 tracking needs, without repeating the
// completion-time computation Fitness already performed. ok is false
// before the first SaveBest.
func (ev *IncrementalEvaluator) BestMakespan() (units.Seconds, bool) {
	if !ev.best.valid {
		return 0, false
	}
	mk := ev.best.times[0]
	for _, ct := range ev.best.times[1:] {
		if ct > mk {
			mk = ct
		}
	}
	return mk, true
}

// fullEval scores c from scratch into s, charging the whole chromosome.
func (ev *IncrementalEvaluator) fullEval(s *slotState, c ga.Chromosome) {
	found := ev.p.scan(c, s.times, s.delims[:cap(s.delims)])
	s.delims = s.delims[:found]
	s.fitness = fitnessFromError(ev.p.relativeErrorFrom(s.times))
	s.valid = true
	ev.genes += len(c)
}

// recomputeSegment re-derives processor seg's completion time from the
// chromosome, charging only that segment's span.
func (ev *IncrementalEvaluator) recomputeSegment(c ga.Chromosome, delims []int, seg int) units.Seconds {
	lo, hi := segmentSpan(c, delims, seg)
	ev.genes += hi - lo
	return ev.p.segmentTime(c, seg, lo, hi)
}

// slot exposes a slot's state to the slot-aware rebalancer (same
// package); callers must ensure validity via ensureValid first.
func (ev *IncrementalEvaluator) slot(i int) *slotState { return &ev.cur[i] }

// ensureValid makes slot i's cache current for chromosome c,
// performing (and charging) a full evaluation if needed. It reports
// whether work was performed.
func (ev *IncrementalEvaluator) ensureValid(i int, c ga.Chromosome) bool {
	s := &ev.cur[i]
	if s.valid {
		return false
	}
	ev.fullEval(s, c)
	return true
}

// segmentOf returns the queue (segment) index of task position pos
// given the sorted delimiter positions: the number of delimiters
// before pos.
func segmentOf(delims []int, pos int) int {
	return sort.SearchInts(delims, pos)
}

// segmentSpan returns the half-open chromosome span [lo, hi) of
// segment seg — the task symbols of processor seg's queue.
func segmentSpan(c ga.Chromosome, delims []int, seg int) (lo, hi int) {
	lo = 0
	if seg > 0 {
		lo = delims[seg-1] + 1
	}
	hi = len(c)
	if seg < len(delims) {
		hi = delims[seg]
	}
	return lo, hi
}
