package ga

import (
	"slices"
	"testing"
	"testing/quick"

	"pnsched/internal/rng"
)

// perm returns a uniformly random permutation of [0, n).
func perm(r *rng.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

func randomParents(seed uint64, nRaw uint8) (Chromosome, Chromosome, int) {
	n := int(nRaw%30) + 2
	r := rng.New(seed)
	symbols := make([]int, n)
	for i := range symbols {
		symbols[i] = i - n/2 // include negatives like the delimiters
	}
	p1 := make(Chromosome, n)
	p2 := make(Chromosome, n)
	for i, v := range perm(r, n) {
		p1[i] = symbols[v]
	}
	for i, v := range perm(r, n) {
		p2[i] = symbols[v]
	}
	return p1, p2, n
}

// breed runs an in-place operator the way the engine does — two
// destinations of the parents' length, one scratch — and returns the
// children.
func breed(op Crossover, p1, p2 Chromosome, r *rng.RNG) (Chromosome, Chromosome) {
	c1, c2 := make(Chromosome, len(p1)), make(Chromosome, len(p1))
	op(c1, c2, p1, p2, new(Scratch), r)
	return c1, c2
}

// firstChild adapts a one-child kernel cut at [lo,hi] to breed.
func firstChild(kernel func(child, a, b Chromosome, lo, hi int, s *Scratch), lo, hi int) Crossover {
	return func(c1, _, a, b Chromosome, s *Scratch, _ *rng.RNG) { kernel(c1, a, b, lo, hi, s) }
}

// Both extra crossovers must preserve the symbol multiset.
func TestPMXProducesPermutations(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		p1, p2, _ := randomParents(seed, nRaw)
		r := rng.New(seed ^ 0xff)
		c1, c2 := breed(PMX, p1, p2, r)
		return c1.IsPermutationOf(p1) && c2.IsPermutationOf(p1) &&
			c1.ValidatePermutation() == nil && c2.ValidatePermutation() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOXProducesPermutations(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		p1, p2, _ := randomParents(seed, nRaw)
		r := rng.New(seed ^ 0xabcd)
		c1, c2 := breed(OX, p1, p2, r)
		return c1.IsPermutationOf(p1) && c2.IsPermutationOf(p1) &&
			c1.ValidatePermutation() == nil && c2.ValidatePermutation() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPMXKnownExample(t *testing.T) {
	// Classic Goldberg & Lingle example with segment [3,6]:
	// p1 = 1 2 3 4 5 6 7 8 9, p2 = 9 3 7 8 2 6 5 1 4
	p1 := Chromosome{1, 2, 3, 4, 5, 6, 7, 8, 9}
	p2 := Chromosome{9, 3, 7, 8, 2, 6, 5, 1, 4}
	c1, _ := breed(firstChild(pmxChild, 3, 6), p1, p2, nil)
	// Segment from p2: positions 3-6 = 8 2 6 5. Mapping 8→4, 2→5, 6→6, 5→7.
	// Repairs: pos0 1→1; pos1 2 dup → chase 2→5→7; pos2 3→3;
	// pos7 8 dup → 8→4; pos8 9→9.
	want := Chromosome{1, 7, 3, 8, 2, 6, 5, 4, 9}
	if !slices.Equal(c1, want) {
		t.Errorf("PMX child = %v, want %v", c1, want)
	}
}

func TestOXKnownExample(t *testing.T) {
	// Davis-style example with segment [3,5]:
	// p1 = 1 2 3 4 5 6 7 8 9 keeps 4 5 6 at positions 3-5.
	// p2 = 9 3 7 8 2 6 5 1 4; b-order from position 6: 5 1 4 9 3 7 8 2 6
	// minus {4,5,6} → 1 9 3 7 8 2 placed at positions 6,7,8,0,1,2.
	p1 := Chromosome{1, 2, 3, 4, 5, 6, 7, 8, 9}
	p2 := Chromosome{9, 3, 7, 8, 2, 6, 5, 1, 4}
	c1, _ := breed(firstChild(oxChild, 3, 5), p1, p2, nil)
	want := Chromosome{7, 8, 2, 4, 5, 6, 1, 9, 3}
	if !slices.Equal(c1, want) {
		t.Errorf("OX child = %v, want %v", c1, want)
	}
}

func TestExtraCrossoversIdenticalParents(t *testing.T) {
	p := Chromosome{3, 1, 4, 2, 0}
	r := rng.New(5)
	for name, cx := range map[string]Crossover{"PMX": PMX, "OX": OX, "CX": CX} {
		c1, c2 := breed(cx, p, p, r)
		if !slices.Equal(c1, p) || !slices.Equal(c2, p) {
			t.Errorf("%s on identical parents produced %v, %v", name, c1, c2)
		}
	}
}

func TestExtraCrossoversTinyParents(t *testing.T) {
	r := rng.New(6)
	one := Chromosome{7}
	for name, cx := range map[string]Crossover{"PMX": PMX, "OX": OX} {
		c1, c2 := breed(cx, one, one, r)
		if len(c1) != 1 || len(c2) != 1 || c1[0] != 7 {
			t.Errorf("%s single-gene = %v, %v", name, c1, c2)
		}
	}
}

func TestExtraCrossoversPanicOnLengthMismatch(t *testing.T) {
	r := rng.New(7)
	for name, cx := range map[string]Crossover{"PMX": PMX, "OX": OX} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s length mismatch did not panic", name)
				}
			}()
			breed(cx, Chromosome{1, 2}, Chromosome{1, 2, 3}, r)
		}()
	}
}

func TestPMXSegmentFromOppositeParent(t *testing.T) {
	// The defining PMX property: inside the exchanged segment, child 1
	// carries p2's symbols at p2's positions.
	p1 := Chromosome{0, 1, 2, 3, 4, 5}
	p2 := Chromosome{5, 4, 3, 2, 1, 0}
	c1, _ := breed(firstChild(pmxChild, 1, 3), p1, p2, nil)
	for i := 1; i <= 3; i++ {
		if c1[i] != p2[i] {
			t.Errorf("segment position %d = %d, want %d", i, c1[i], p2[i])
		}
	}
}

func TestOXSegmentFromOwnParent(t *testing.T) {
	// OX keeps the base parent's segment in place.
	p1 := Chromosome{0, 1, 2, 3, 4, 5}
	p2 := Chromosome{5, 4, 3, 2, 1, 0}
	c1, _ := breed(firstChild(oxChild, 2, 4), p1, p2, nil)
	for i := 2; i <= 4; i++ {
		if c1[i] != p1[i] {
			t.Errorf("segment position %d = %d, want %d", i, c1[i], p1[i])
		}
	}
}
