package ga

import (
	"fmt"

	"pnsched/internal/rng"
)

// This file implements two further permutation crossovers — PMX and
// OX — as ablation alternatives to the paper's cycle crossover. GA
// scheduling papers in the lineage the paper cites (Hou, Ansari & Ren;
// Zomaya et al.) differ in operator choice; these let the bench
// harness quantify what CX buys.

// Crossover is a permutation crossover operator: it reads two parents
// that are permutations of the same symbols and writes two children
// with the same property into c1 and c2. The destinations are the
// caller's (the engine hands out two slots of its next generation):
// they have the parents' length, alias neither parent, and every
// position must be written. s is the caller's working memory, so an
// operator needs to allocate nothing; r is the caller's random stream.
//
// An operator leaves its diff report in s: for each child, the
// positions where it differs from each parent (see Scratch). The engine
// hands those lists to a SlotEvaluator rather than comparing the
// chromosomes again, so an operator that derives the report from its
// own work (CX) saves that pass; the others end with Scratch.diff4. The
// report's buffers are unexported, so every Crossover lives in this
// package.
type Crossover func(c1, c2, p1, p2 Chromosome, s *Scratch, r *rng.RNG)

// PMX is partially mapped crossover (Goldberg & Lingle): a random
// segment is exchanged between the parents and the displaced symbols
// are repaired through the segment's bidirectional mapping. Children
// inherit the segment's absolute positions from the opposite parent
// and most other positions from their own.
func PMX(c1, c2, p1, p2 Chromosome, s *Scratch, r *rng.RNG) {
	if lo, hi, ok := segment("PMX", c1, c2, p1, p2, r); ok {
		pmxChild(c1, p1, p2, lo, hi, s)
		pmxChild(c2, p2, p1, lo, hi, s)
	}
	s.diff4(c1, c2, p1, p2)
}

// segment is the shared opening of PMX and OX: the length check, the
// pass-through for parents too short to cut (ok is false: the children
// are already copies), and the draw of the segment [lo,hi].
func segment(op string, c1, c2, p1, p2 Chromosome, r *rng.RNG) (lo, hi int, ok bool) {
	n := len(p1)
	if n != len(p2) {
		panic(fmt.Sprintf("ga: %s length mismatch %d vs %d", op, n, len(p2)))
	}
	if n < 2 {
		copy(c1, p1)
		copy(c2, p2)
		return 0, 0, false
	}
	lo = r.Intn(n)
	hi = r.Intn(n)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi, true
}

// pmxChild writes one PMX child: base parent `a` with segment [lo,hi]
// replaced by b's, repairing duplicates via the mapping b[i] → a[i].
func pmxChild(child, a, b Chromosome, lo, hi int, s *Scratch) {
	// The mapping from a symbol placed into the child (from b) back to
	// the symbol it displaced (from a) is read off b's position index:
	// v is in the copied segment when b holds it at a position in
	// [lo,hi], and a's symbol at that position is the one it displaced.
	s.index.build(b)
	copy(child[lo:hi+1], b[lo:hi+1])
	for i, v := range a {
		if i >= lo && i <= hi {
			continue
		}
		// Chase the mapping until the symbol is not present in the
		// copied segment; the chain terminates because each step maps
		// to a symbol displaced out of the segment.
		for {
			at, ok := s.index.lookup(v)
			if !ok || at < lo || at > hi {
				break
			}
			v = a[at]
		}
		child[i] = v
	}
}

// OX is order crossover (Davis): a random segment is copied verbatim
// from each parent, and the remaining positions are filled with the
// other parent's symbols in their relative order, starting after the
// segment. It preserves relative order rather than absolute position.
func OX(c1, c2, p1, p2 Chromosome, s *Scratch, r *rng.RNG) {
	if lo, hi, ok := segment("OX", c1, c2, p1, p2, r); ok {
		oxChild(c1, p1, p2, lo, hi, s)
		oxChild(c2, p2, p1, lo, hi, s)
	}
	s.diff4(c1, c2, p1, p2)
}

// oxChild keeps a's segment [lo,hi] and fills the remaining positions
// (taken in cyclic order starting just past the segment) with b's
// symbols in the cyclic order they appear in b from the same point.
func oxChild(child, a, b Chromosome, lo, hi int, s *Scratch) {
	n := len(a)
	// A symbol is in the kept segment when a holds it inside [lo,hi].
	s.index.build(a)
	copy(child[lo:hi+1], a[lo:hi+1])
	fill := hi + 1 // next position to fill: hi+1 … n−1, then 0 … lo−1
	for k, left := 1, n-(hi-lo+1); k <= n && left > 0; k++ {
		v := b[(hi+k)%n]
		if at, ok := s.index.lookup(v); ok && at >= lo && at <= hi {
			continue
		}
		if fill == n {
			fill = 0
		}
		child[fill] = v
		fill++
		left--
	}
}
