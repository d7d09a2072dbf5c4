package core

import (
	"math"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// Rebalancer applies the paper's §3.5 rebalancing heuristic to the
// individuals of one Problem's GA population. Bound to an
// IncrementalEvaluator (BindSlots), it reads each individual's cached
// completion times instead of recomputing them — the "before" fitness
// is already known, and a candidate swap re-derives only the two
// affected queues — with all work charged to the shared evaluator
// ledger. Use one Rebalancer per goroutine.
type Rebalancer struct {
	p      *Problem
	ftimes []units.Seconds // scratch for a candidate's completion times
	// Evals counts fitness evaluations performed by rebalancing, so
	// the scheduler can charge their cost alongside the GA's own. A
	// candidate probe counts once (the cached "before" needs no work).
	Evals int

	// ev is the shared incremental evaluator.
	ev *IncrementalEvaluator
}

// NewRebalancer returns a Rebalancer for the problem; bind it to the
// evaluator scoring the population with BindSlots before use.
func NewRebalancer(p *Problem) *Rebalancer {
	rb := new(Rebalancer)
	rb.reset(p)
	return rb
}

// reset makes rb an unbound rebalancer for p with its count zeroed,
// keeping its scratch buffer for reuse: a pooled rebalancer serves the
// next run without allocating it again.
func (rb *Rebalancer) reset(p *Problem) {
	*rb = Rebalancer{p: p, ftimes: resize(rb.ftimes, p.M)}
}

// BindSlots binds the rebalancer to ev: candidate moves are scored
// against ev's cached completion-time vectors and all work is charged
// to ev's gene ledger.
func (rb *Rebalancer) BindSlots(ev *IncrementalEvaluator) {
	rb.ev = ev
}

// maxProbes is the paper's bound: "We only allow a maximum of 5 random
// searches for a smaller task."
const maxProbes = 5

// StepSlot performs one rebalancing attempt in place on c, the
// individual in the given population slot: select the most heavily
// loaded processor (largest predicted completion time), probe up to
// five times for a task on another processor that is smaller than a
// task on the heavy one, swap the pair, and keep the result only if the
// schedule's fitness improved. It reports whether a swap was kept. The
// heavy processor comes from the bound evaluator's cached completion
// times, the "before" fitness is the cached one, and a candidate swap
// re-derives only the two affected queues. RNG consumption and the
// keep/revert decision are those of the same step scored by full
// evaluations (same draws, bit-identical fitness values).
//
// Most probes revert, so each is first screened in O(1): moving d
// MFLOPs changes only the two queues' times, by −d/P_heavy and
// +d/P_other, so the change Δ in Σⱼ(ψ − Cⱼ)² follows from the cached
// times. When Δ exceeds a proven bound on the rounding error between
// that estimate and the sums the two rescans would compare
// (surelyWorse), the rescans could only find the schedule no fitter,
// and the probe reverts without swapping or rescanning. Every other
// probe — a candidate to keep, a near-tie, non-finite inputs — takes
// the exact path. A screened probe still bills the gene ledger the two
// queues it priced, as the rescans would have: the ledger is the §3.4
// budget model, so a schedule, its cost and its decisions do not
// depend on the screen. The tests hold StepSlot to an unscreened
// standalone step that scores every probe by full evaluation.
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

	// Per-segment task counts stand in for lists of task positions:
	// segments are contiguous spans, so the k-th task position on (or
	// off) the heavy processor is recovered arithmetically, with the
	// draw distribution and RNG consumption of drawing from the lists. A probe knows both queues
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
		hsize, osize := p.sizes[c[hi]], p.sizes[c[oi]]
		if osize >= hsize {
			continue // the probed task is not smaller; search again
		}
		rb.Evals++
		otherLo, otherHi := segmentSpan(c, s.delims, oq)
		if p.surelyWorse(s, heavy, oq, heavyLen, otherHi-otherLo, hsize-osize, len(c)) {
			ev.genes += heavyLen + otherHi - otherLo
			return false
		}
		before := s.fitness
		c[hi], c[oi] = c[oi], c[hi]
		ftimes := append(rb.ftimes[:0], s.times...)
		ftimes[heavy] = ev.recomputeSegment(c, s.delims, heavy)
		ftimes[oq] = ev.recomputeSegment(c, s.delims, oq)
		after := fitnessFromError(p.relativeErrorFrom(ftimes))
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

// screenSlack is the rounding allowance of surelyWorse per chromosome
// position: 2⁻⁴⁰ = 2¹³·u, with u = 2⁻⁵³ the unit roundoff, 2048 times
// the 4u per position the derivation there needs.
const screenSlack = 0x1p-40

// surelyWorse reports whether moving d > 0 MFLOPs of work from queue a
// (na tasks) to queue b (nb tasks) of the schedule cached in s — a
// chromosome of genes positions — leaves a fitness no higher than
// s.fitness, which is what StepSlot's two rescans would find. It is
// exact in the one direction that matters: a true result is proven;
// a false one proves nothing, and the caller rescans.
//
// Write t for the cached times, f = s.fitness, P for rates, and
// S = Σⱼ fl((ψ − tⱼ)²), summed in order, as relativeErrorFrom does.
// The probe keeps only if fitnessFromError(√S′) > fitnessFromError(√S),
// and that map is non-increasing, so S′ ≥ S, or a non-finite S′, means
// a revert. The estimate is
//
//	Δ = dₐ(2(ψ − tₐ) + dₐ) + d_b(d_b − 2(ψ − t_b)),  dₐ = d/Pₐ, d_b = d/P_b,
//
// the exact change of the two terms if the queues lose and gain d/P
// seconds. Rounding is bounded with the standard model (each operation
// is exact times 1+θ, |θ| ≤ u; a fused multiply-add only drops a
// rounding):
//
//   - A queue's time is δ + W/P + nΓ, W its summed sizes, and
//     queueTime's float value is within γ_{n+2}·Â of it, where
//     Â = |δ| + n·(σ/P + |Γ|) and σ = maxSize bounds every |size|. W
//     changes by exactly ∓d, so each rescanned time is within 2γ_{n+2}·Â
//     of t ∓ d/P.
//   - With R = |ψ| + |t| + Â + d/P for each queue, the change of each
//     queue's squared term differs from its part of Δ by at most
//     (4n + 14)·u·R², and evaluating Δ itself errs by at most
//     14·u·(Rₐ² + R_b²).
//   - The two in-order sums of M non-negative terms err by γ_{M−1}
//     times their sums, and S ≤ (1+7u)/f² follows from
//     f = fl(1/fl(1 + fl(√S))). So S′ − S > 0 once the terms' change
//     exceeds 2.001·(M−1)·u/f².
//
// Since M + na + nb ≤ genes + 1, Δ > 4·(genes + 8)·u·(Rₐ² + R_b² + 1/f²)
// proves the revert; the bound below is 2048 times that, which also
// covers the rounding in computing it and any underflow (f ≤ 1 keeps
// the bound above 2⁻⁴⁰). Nothing here assumes a sign of Γ, of a prior
// load or of a size, or a limit on M, for chromosomes shorter than 2³³
// positions.
//
// Non-finite inputs fail the test, because a comparison with NaN or
// with +Inf is false. f = 0 — some time, ψ or S is not finite, as a
// stopped processor holding a task makes its time — gives a bound of
// +Inf. When f > 0, every queue holding a task has a positive rate, so
// dₐ, d_b > 0. An overflow inside Δ with a finite bound means Δ's exact
// value exceeds the bound too.
func (p *Problem) surelyWorse(s *slotState, a, b, na, nb int, d units.MFlops, genes int) bool {
	psi, ta, tb := float64(p.psi), float64(s.times[a]), float64(s.times[b])
	da := float64(d) / float64(p.Rates[a])
	db := float64(d) / float64(p.Rates[b])
	delta := da*(2*(psi-ta)+da) + db*(db-2*(psi-tb))
	ra := math.Abs(psi) + math.Abs(ta) + p.spread(a, na) + da
	rb := math.Abs(psi) + math.Abs(tb) + p.spread(b, nb) + db
	bound := float64(genes+8) * screenSlack * (ra*ra + rb*rb + 1/(s.fitness*s.fitness))
	return delta > bound
}

// spread is surelyWorse's Â for a queue of n tasks on processor j: the
// magnitude of everything queueTime adds up, so a bound on its
// rounding error.
func (p *Problem) spread(j, n int) float64 {
	a := math.Abs(float64(p.delta(j))) + float64(n)*float64(p.maxSize)/float64(p.Rates[j])
	if p.IncludeComm {
		a += float64(n) * math.Abs(float64(p.Comm[j]))
	}
	return a
}

// otherTask maps k — an index into the increasing sequence of task
// positions outside queue heavy, whose heavyLen tasks start at position
// heavyLo — to that task's position and queue. Skipping the heavy queue
// makes k the g-th task of the whole chromosome; delims[d]−d tasks lie
// before delimiter d, so one search over the delimiters finds the
// queue, which is also the number of delimiters before the task. The
// search is sort.Search's, written out so no closure is called per
// step.
func otherTask(delims []int, heavy, heavyLo, heavyLen, k int) (pos, queue int) {
	g := k
	if g >= heavyLo-heavy { // the tasks on the queues before the heavy one
		g += heavyLen
	}
	lo, hi := 0, len(delims) // the first d with delims[d]−d > g is in [lo, hi]
	for lo < hi {
		d := int(uint(lo+hi) >> 1)
		if delims[d]-d > g {
			hi = d
		} else {
			lo = d + 1
		}
	}
	return g + lo, lo
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
