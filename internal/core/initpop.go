package core

import (
	"pnsched/internal/ga"
	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// ListPopulation builds an initial population with the paper's §3.3
// list-scheduling heuristic: "A percentage of tasks are randomly
// assigned to processors with the remaining tasks being assigned to the
// processors that will finish processing them the earliest. This leads
// to a well balanced randomised initial population."
//
// The random percentage varies across individuals — individual 0 is
// pure earliest-finish, the last is fully random — giving the population
// both quality and diversity.
//
// Each individual is laid out by counting rather than by growing M
// queues: one pass draws the tasks' processors (roughly frac of them
// uniformly at random, the rest earliest-finishing given the loads and
// communication estimates accumulated so far) and counts each
// processor's tasks, a prefix sum turns the counts into queue offsets,
// and a second pass drops every task's batch position into place. The
// chromosomes share one backing array and the passes one scratch.
func ListPopulation(p *Problem, size int, r *rng.RNG) []ga.Chromosome {
	return new(seeding).list(p, size, r)
}

// seeding is ListPopulation's working memory: the population's genes
// and chromosome headers, and the per-task and per-queue scratch of the
// two passes. A batch decision's pooled workspace keeps one, so
// seeding a population of a shape seen before allocates nothing; what
// list returns is then a view of it, valid until the next call.
type seeding struct {
	genes  []int
	out    []ga.Chromosome
	order  []int // batch indices in draw order
	proc   []int // processor drawn for order[k]
	counts []int // tasks per queue
	cursor []int // next free gene per queue
	loads  []units.MFlops
	// comm[j] is queue j's communication term for its next task,
	// (counts[j]+1)·Γc(j), kept as counts[j] grows; read only when the
	// problem includes Γc.
	comm []units.Seconds
}

// list builds ListPopulation's population in s's buffers, drawing
// exactly what ListPopulation draws.
func (s *seeding) list(p *Problem, size int, r *rng.RNG) []ga.Chromosome {
	if size < 1 {
		size = 1
	}
	h, m := len(p.Batch), p.M
	length := ChromosomeLen(h, m)
	s.genes = resize(s.genes, size*length)
	s.out = resize(s.out, size)
	s.order, s.proc = resize(s.order, h), resize(s.proc, h)
	s.counts, s.cursor = resize(s.counts, m), resize(s.cursor, m)
	s.loads, s.comm = resize(s.loads, m), resize(s.comm, m)
	order, proc, counts, cursor, loads := s.order, s.proc, s.counts, s.cursor, s.loads

	for i := range s.out {
		frac := 0.0
		if size > 1 {
			frac = float64(i) / float64(size-1)
		}
		copy(loads, p.Loads)
		clear(counts)
		copy(s.comm, p.Comm) // (0+1)·Γc(j)
		for k := range order {
			order[k] = k
		}
		r.ShuffleInts(order)
		for k, idx := range order {
			t := p.Batch[idx]
			var j int
			if r.Float64() < frac {
				j = r.Intn(m)
			} else {
				j = p.earliestFinish(t.Size, loads, s.comm)
			}
			proc[k] = j
			loads[j] += t.Size
			counts[j]++
			if p.IncludeComm {
				s.comm[j] = units.Seconds(float64(counts[j]+1) * float64(p.Comm[j]))
			}
		}

		c := s.genes[i*length : (i+1)*length : (i+1)*length]
		at := 0
		for j := 0; j < m; j++ {
			if j > 0 {
				c[at] = Delimiter(j)
				at++
			}
			cursor[j] = at
			at += counts[j]
		}
		for k, idx := range order {
			j := proc[k]
			c[cursor[j]] = idx
			cursor[j]++
		}
		s.out[i] = c
	}
	return s.out
}

// earliestFinish returns the processor finishing a task of the given
// size soonest: argmin_j (loads[j]+size)/Pⱼ + comm[j], where comm[j] is
// queue j's communication term (counts[j]+1)·Γc(j) — read only when the
// problem includes Γc, which is tested once per task. Stopped
// processors (rate 0 → infinite finish) are avoided unless every
// processor is stopped, in which case index 0 is returned.
func (p *Problem) earliestFinish(size units.MFlops, loads []units.MFlops, comm []units.Seconds) int {
	bestJ := -1
	bestFinish := units.Inf()
	rates := p.Rates[:len(loads)]
	if p.IncludeComm {
		comm = comm[:len(loads)]
		for j, l := range loads {
			if finish := (l + size).TimeOn(rates[j]) + comm[j]; finish < bestFinish {
				bestFinish, bestJ = finish, j
			}
		}
	} else {
		for j, l := range loads {
			if finish := (l + size).TimeOn(rates[j]); finish < bestFinish {
				bestFinish, bestJ = finish, j
			}
		}
	}
	return max(bestJ, 0)
}

// RandomPopulation builds an initial population of uniformly random
// schedules — the seeding used by the ZO comparator, which lacks the
// list-scheduling heuristic.
func RandomPopulation(p *Problem, size int, r *rng.RNG) []ga.Chromosome {
	if size < 1 {
		size = 1
	}
	// Base symbol list: every batch position plus the M−1 delimiters.
	base := make([]int, 0, ChromosomeLen(len(p.Batch), p.M))
	for i := range p.Batch {
		base = append(base, i)
	}
	for k := 1; k < p.M; k++ {
		base = append(base, Delimiter(k))
	}
	out := make([]ga.Chromosome, size)
	for i := range out {
		c := make(ga.Chromosome, len(base))
		copy(c, base)
		r.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
		out[i] = c
	}
	return out
}
