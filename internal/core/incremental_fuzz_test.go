package core

import (
	"math"
	"testing"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
)

// childParents builds the two parents of one FuzzChildDelta case. The
// low bits of kinds pick each parent's origin — the §3.3 list
// heuristic or a random schedule — and bit 2 replaces the second
// parent with the first after swaps random exchanges, the near-copy a
// converged population breeds from.
func childParents(p *Problem, seed uint64, kinds, swaps uint8) (p1, p2 ga.Chromosome) {
	r := rng.New(seed)
	pick := func(list bool) ga.Chromosome {
		if list {
			return ListPopulation(p, 1, r)[0]
		}
		return RandomPopulation(p, 1, r)[0]
	}
	p1, p2 = pick(kinds&1 == 1), pick(kinds&2 == 2)
	if kinds&4 == 4 {
		p2 = p1.Clone()
		for k := 0; k < int(swaps%16); k++ {
			ga.SwapMutation(p2, r)
		}
	}
	return p1, p2
}

// diffPositions lists, in increasing order, the positions where c
// differs from parent.
func diffPositions(c, parent ga.Chromosome) []int {
	var out []int
	for i := range c {
		if c[i] != parent[i] {
			out = append(out, i)
		}
	}
	return out
}

// FuzzChildDelta holds DeriveCross to a from-scratch evaluation: for
// every CX, PMX and OX child of two scored parents, derived from either
// parent, the state it leaves is bit-identical to fullEval's —
// completion times, delimiter positions and fitness — and it charges
// at most one chromosome's genes (none for an unchanged child). It
// falls back to a full evaluation only where a changed position holds
// a delimiter. The seed corpus under testdata/fuzz/FuzzChildDelta holds
// one case per operator × parent kind.
func FuzzChildDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, op, kinds, swaps uint8) {
		ops := []ga.Crossover{ga.CX, ga.PMX, ga.OX}
		cross := ops[int(op)%len(ops)]
		p := randomProblem(seed)
		p1, p2 := childParents(p, seed^0xc41d, kinds, swaps)

		ev := NewIncrementalEvaluator(p)
		ev.InitSlots(2)
		ev.FitnessSlot(0, p1)
		ev.FitnessSlot(1, p2)
		parents := []ga.Chromosome{p1, p2}

		c1, c2 := make(ga.Chromosome, len(p1)), make(ga.Chromosome, len(p1))
		cross(c1, c2, p1, p2, new(ga.Scratch), rng.New(seed))
		for _, c := range []ga.Chromosome{c1, c2} {
			want := NewIncrementalEvaluator(p)
			want.InitSlots(1)
			want.FitnessSlot(0, c)
			ws := want.slot(0)

			for src, parent := range parents {
				changed := diffPositions(c, parent)
				ev.BeginGeneration()
				before := ev.GenesEvaluated()
				ev.DeriveCross(0, src, c, changed)
				charged := ev.GenesEvaluated() - before
				if charged > len(c) || (len(changed) == 0 && charged != 0) {
					t.Fatalf("child of parent %d: %d positions changed, %d genes charged for a chromosome of %d",
						src, len(changed), charged, len(c))
				}

				s := &ev.nxt[0]
				delimMoved := false
				for _, pos := range changed {
					delimMoved = delimMoved || c[pos] < 0 || parent[pos] < 0
				}
				if !s.valid {
					if !delimMoved {
						t.Fatalf("child of parent %d fell back to a full evaluation with no delimiter among %v", src, changed)
					}
					continue
				}
				if delimMoved {
					t.Fatalf("child of parent %d kept a parent's queues across a moved delimiter", src)
				}
				if math.Float64bits(s.fitness) != math.Float64bits(ws.fitness) {
					t.Fatalf("child of parent %d: fitness %v, full evaluation %v", src, s.fitness, ws.fitness)
				}
				for q := range ws.times {
					if math.Float64bits(float64(s.times[q])) != math.Float64bits(float64(ws.times[q])) {
						t.Fatalf("child of parent %d: queue %d time %v, full evaluation %v", src, q, s.times[q], ws.times[q])
					}
				}
				if len(s.delims) != len(ws.delims) {
					t.Fatalf("child of parent %d: delimiters %v, full evaluation %v", src, s.delims, ws.delims)
				}
				for k := range ws.delims {
					if s.delims[k] != ws.delims[k] {
						t.Fatalf("child of parent %d: delimiters %v, full evaluation %v", src, s.delims, ws.delims)
					}
				}
			}
		}
	})
}
