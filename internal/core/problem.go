package core

import (
	"fmt"
	"math"

	"pnsched/internal/ga"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// Problem is an immutable snapshot of one batch-scheduling decision:
// the batch of tasks plus everything the scheduler believes about the
// system at invocation time. The GA evaluates thousands of chromosomes
// against a single Problem, so all quantities are captured once.
type Problem struct {
	// Batch is the batch's tasks; a chromosome names Batch[i] by i.
	Batch []task.Task
	M     int
	// Rates[j] is the believed execution rate Pⱼ of processor j.
	Rates []units.Rate
	// Loads[j] is the previously assigned but unprocessed load Lⱼ of
	// processor j, in MFLOPs.
	Loads []units.MFlops
	// Comm[j] is the smoothed per-task communication estimate Γc for
	// the link to processor j. The ZO scheduler zeroes this term via
	// IncludeComm.
	Comm []units.Seconds
	// IncludeComm controls whether the Γc(y,j) term enters predicted
	// completion times. PN sets it; ZO (which "only considers the
	// effect of communication after tasks have been scheduled") clears
	// it.
	IncludeComm bool

	psi units.Seconds // cached theoretical optimum

	// sizes[i] is Batch[i].Size, read by the GA's inner loops: a
	// chromosome names a task by its position in Batch.
	sizes []units.MFlops
	// maxSize is the largest task size in magnitude, the bound on one
	// task's work the rebalancer's probe screen needs (rebalance.go).
	maxSize units.MFlops
}

// indexSizes builds the size table the inner loops read and notes the
// largest size.
func (p *Problem) indexSizes() {
	p.sizes = make([]units.MFlops, len(p.Batch))
	for i, t := range p.Batch {
		p.sizes[i] = t.Size
		p.maxSize = max(p.maxSize, units.MFlops(math.Abs(float64(t.Size))))
	}
}

// NewProblem snapshots a scheduling decision from the scheduler's view.
func NewProblem(batch []task.Task, s sched.State, includeComm bool) *Problem {
	p := newProblem(batch, s.M(), includeComm)
	for j := range p.M {
		p.Rates[j] = s.Rate(j)
		p.Loads[j] = s.PendingLoad(j)
		if includeComm {
			p.Comm[j] = s.CommEstimate(j)
		}
	}
	p.indexSizes()
	p.psi = p.computePsi()
	return p
}

// BuildProblem constructs a Problem from explicit system beliefs — used
// by experiments (Figs. 3–4) that exercise the GA outside a running
// simulation. rates, loads and comm must each have one entry per
// processor; loads and comm may be nil (all zero). The vectors are
// copied: a Problem never changes under the GA evaluating against it.
func BuildProblem(batch []task.Task, rates []units.Rate, loads []units.MFlops, comm []units.Seconds, includeComm bool) *Problem {
	p := newProblem(batch, len(rates), includeComm)
	copy(p.Rates, rates)
	copy(p.Loads, loads)
	copy(p.Comm, comm)
	p.indexSizes()
	p.psi = p.computePsi()
	return p
}

// newProblem allocates a Problem's per-processor vectors, all zero, for
// its constructor to fill.
func newProblem(batch []task.Task, m int, includeComm bool) *Problem {
	return &Problem{
		Batch:       batch,
		M:           m,
		Rates:       make([]units.Rate, m),
		Loads:       make([]units.MFlops, m),
		Comm:        make([]units.Seconds, m),
		IncludeComm: includeComm,
	}
}

// delta returns δⱼ = Lⱼ/Pⱼ, the finishing time of processor j's
// previously assigned load (§3.2).
func (p *Problem) delta(j int) units.Seconds {
	if p.Loads[j] == 0 {
		return 0
	}
	return p.Loads[j].TimeOn(p.Rates[j])
}

// computePsi evaluates the theoretical optimal processing time ψ: the
// earliest instant at which all processors could finish simultaneously,
// given the batch and the previously assigned load.
//
// The paper writes ψ = (Σᵢ tᵢ / Σⱼ Pⱼ) + Σⱼ δⱼ. Summing every
// processor's prior-load finish time δⱼ overstates the reachable ideal
// M-fold as soon as prior loads exist, which flattens the fitness
// gradient (every Cⱼ sits far below ψ, so schedules barely
// differentiate). We read the prior-load term as the work-equivalent
// spread over the whole cluster,
//
//	ψ = ( Σᵢ tᵢ + Σⱼ Lⱼ ) / Σⱼ Pⱼ,
//
// which coincides exactly with the paper's expression for M = 1 and is
// the true simultaneous-finish optimum for M > 1.
func (p *Problem) computePsi() units.Seconds {
	var totalWork units.MFlops
	for _, t := range p.Batch {
		totalWork += t.Size
	}
	for j := 0; j < p.M; j++ {
		if p.Rates[j] > 0 {
			// Loads stranded on stopped processors are excluded: they
			// cannot contribute to (or be drained by) the cluster.
			totalWork += p.Loads[j]
		}
	}
	return totalWork.TimeOn(units.SumRates(p.Rates))
}

// CompletionTimes computes, for each processor j, the predicted time to
// drain its prior load plus its queue under chromosome c:
//
//	Cⱼ = δⱼ + Σ_{y ∈ queue j} ( t_y / Pⱼ + Γc(y,j) )
//
// The result is written into out (allocated when nil) so the GA's inner
// loop is allocation-free.
func (p *Problem) CompletionTimes(c ga.Chromosome, out []units.Seconds) []units.Seconds {
	if out == nil {
		out = make([]units.Seconds, p.M)
	}
	p.scan(c, out, nil)
	return out
}

// scan is the one pass over a chromosome every full evaluation makes:
// it writes each processor's completion time into out and, while
// delims has room, the position of the k-th delimiter into delims[k]
// (the incremental evaluator's segment index; nil records none). It
// returns the number of delimiters met.
func (p *Problem) scan(c ga.Chromosome, out []units.Seconds, delims []int) int {
	var work units.MFlops
	count, j := 0, 0
	sizes := p.sizes
	for i, sym := range c {
		if sym >= 0 {
			work += sizes[sym]
			count++
			continue
		}
		out[j] = p.queueTime(j, work, count)
		if j < len(delims) {
			delims[j] = i
		}
		work, count = 0, 0
		j++
	}
	out[j] = p.queueTime(j, work, count)
	for k := j + 1; k < p.M; k++ {
		out[k] = p.delta(k)
	}
	return j
}

// queueTime is Cⱼ for a queue of count tasks totalling work MFLOPs —
// the one place the per-queue arithmetic lives, so a full scan and a
// segment-local recomputation produce bit-identical values.
func (p *Problem) queueTime(j int, work units.MFlops, count int) units.Seconds {
	ct := p.delta(j)
	if count > 0 {
		ct += work.TimeOn(p.Rates[j])
		if p.IncludeComm {
			ct += units.Seconds(float64(count) * float64(p.Comm[j]))
		}
	}
	return ct
}

// RelativeError computes the paper's §3.2 error metric for chromosome c:
//
//	E = sqrt( Σⱼ |ψ − Cⱼ|² )
//
// the RMS deviation of per-processor completion times from the ideal.
func (p *Problem) RelativeError(c ga.Chromosome) float64 {
	times := p.CompletionTimes(c, nil)
	return p.relativeErrorFrom(times)
}

func (p *Problem) relativeErrorFrom(times []units.Seconds) float64 {
	var sum float64
	psi := float64(p.psi)
	for _, ct := range times {
		if ct.IsInf() {
			return math.Inf(1)
		}
		d := psi - float64(ct)
		sum += d * d
	}
	return math.Sqrt(sum)
}

// fitnessFromError maps a relative error onto the (0, 1] fitness scale
// — the single conversion every evaluation path (full, incremental,
// rebalancer) shares, so cached and recomputed fitness values are
// bit-identical. Non-finite errors (an unreachable schedule, or a
// degenerate problem whose ψ is itself non-finite) score zero so the
// roulette wheel gives them no mass.
func fitnessFromError(e float64) float64 {
	if math.IsInf(e, 1) || math.IsNaN(e) {
		return 0
	}
	return 1 / (1 + e)
}

// segmentTime computes the completion time of processor j given the
// queue encoded by c[lo:hi] — the work is accumulated in the order
// scan accumulates it, so a segment-local recomputation is
// bit-identical to a full one. The span must contain task symbols
// only.
func (p *Problem) segmentTime(c ga.Chromosome, j, lo, hi int) units.Seconds {
	var work units.MFlops
	sizes := p.sizes
	for _, sym := range c[lo:hi] {
		work += sizes[sym]
	}
	return p.queueTime(j, work, hi-lo)
}

// Fitness maps the relative error onto (0, 1]:
//
//	F = 1 / (1 + E)
//
// The paper states F = 1/E ∈ [0,1]; 1/E is not bounded in general, so we
// use the monotone-equivalent 1/(1+E), which preserves roulette-wheel
// selection order, is defined at E = 0 and decays to 0 as E → ∞.
// Larger values indicate fitter schedules.
func (p *Problem) Fitness(c ga.Chromosome) float64 {
	return fitnessFromError(p.RelativeError(c))
}

// Assignment decodes chromosome c into the sched.Assignment the
// simulator consumes, resolving batch positions back to tasks. Queues come
// out in Decode's order, but without Decode's per-task appends: one
// count sizes a single backing array, and each queue is the chromosome
// segment it fills, capped at its own length — a consumer appending to
// one queue cannot write into the next — and nil when the processor
// gets nothing. The assignment's two arrays are its only allocations.
// Like Decode, it panics on a chromosome with more than M−1
// delimiters.
func (p *Problem) Assignment(c ga.Chromosome) sched.Assignment {
	tasks := 0
	for _, sym := range c {
		if sym >= 0 {
			tasks++
		}
	}
	out := sched.NewAssignment(p.M)
	backing := make([]task.Task, tasks)
	j, lo, n := 0, 0, 0
	for _, sym := range c {
		if sym >= 0 {
			backing[n] = p.Batch[sym]
			n++
			continue
		}
		if n > lo {
			out[j] = backing[lo:n:n]
		}
		if j++; j >= p.M {
			panic(fmt.Sprintf("core: chromosome has too many delimiters for %d processors", p.M))
		}
		lo = n
	}
	if n > lo {
		out[j] = backing[lo:n:n]
	}
	return out
}
