package ga

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"pnsched/internal/rng"
)

func TestRouletteEmpiricalDistribution(t *testing.T) {
	// Weights 1:2:7 → selection frequencies must match (paper §3.3:
	// slot size ςᵢ = Fᵢ/ΣFⱼ).
	fitness := []float64{1, 2, 7}
	r := rng.New(1)
	const draws = 100000
	counts := make([]int, 3)
	for _, idx := range RouletteWheel(fitness, draws, r) {
		counts[idx]++
	}
	want := []float64{0.1, 0.2, 0.7}
	for i, c := range counts {
		got := float64(c) / draws
		if math.Abs(got-want[i]) > 0.01 {
			t.Errorf("individual %d selected %.3f, want %.3f", i, got, want[i])
		}
	}
}

func TestRouletteZeroWeightsUniform(t *testing.T) {
	fitness := []float64{0, 0, 0}
	r := rng.New(2)
	counts := make([]int, 3)
	for _, idx := range RouletteWheel(fitness, 30000, r) {
		counts[idx]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-10000) > 600 {
			t.Errorf("degenerate wheel not uniform: counts[%d] = %d", i, c)
		}
	}
}

func TestRouletteSkipsZeroWeightIndividuals(t *testing.T) {
	fitness := []float64{0, 5, 0, 5, 0}
	r := rng.New(3)
	for _, idx := range RouletteWheel(fitness, 10000, r) {
		if idx != 1 && idx != 3 {
			t.Fatalf("selected zero-weight individual %d", idx)
		}
	}
}

func TestRouletteIgnoresPathologicalFitness(t *testing.T) {
	fitness := []float64{math.NaN(), 1, math.Inf(1), 1, -5}
	r := rng.New(4)
	for _, idx := range RouletteWheel(fitness, 5000, r) {
		if idx != 1 && idx != 3 {
			t.Fatalf("selected pathological individual %d", idx)
		}
	}
}

func TestRouletteEdgeCases(t *testing.T) {
	if got := RouletteWheel(nil, 5, rng.New(1)); got != nil {
		t.Errorf("empty fitness = %v, want nil", got)
	}
	if got := RouletteWheel([]float64{1}, 0, rng.New(1)); got != nil {
		t.Errorf("zero count = %v, want nil", got)
	}
	got := RouletteWheel([]float64{1}, 3, rng.New(1))
	if len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Errorf("single individual = %v", got)
	}
}

func TestCycleCrossoverKnownExample(t *testing.T) {
	// Classic CX example (Oliver et al.):
	p1 := Chromosome{1, 2, 3, 4, 5, 6, 7, 8}
	p2 := Chromosome{8, 5, 2, 1, 3, 6, 4, 7}
	c1, c2 := CycleCrossover(p1, p2)
	want1 := Chromosome{1, 5, 2, 4, 3, 6, 7, 8}
	want2 := Chromosome{8, 2, 3, 1, 5, 6, 4, 7}
	if !slices.Equal(c1, want1) {
		t.Errorf("c1 = %v, want %v", c1, want1)
	}
	if !slices.Equal(c2, want2) {
		t.Errorf("c2 = %v, want %v", c2, want2)
	}
}

func TestCycleCrossoverIdenticalParents(t *testing.T) {
	p := Chromosome{3, 1, 4, 2}
	c1, c2 := CycleCrossover(p, p)
	if !slices.Equal(c1, p) || !slices.Equal(c2, p) {
		t.Errorf("identical parents produced %v, %v", c1, c2)
	}
}

// CX invariants: children are permutations of the parent symbol set, and
// every child position holds one of the two parent values at that
// position (the defining property of cycle crossover).
func TestCycleCrossoverProperties(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		r := rng.New(seed)
		// Symbols include negatives, mimicking delimiter symbols.
		symbols := make([]int, n)
		for i := range symbols {
			symbols[i] = i - n/2
		}
		p1 := make(Chromosome, n)
		p2 := make(Chromosome, n)
		perm1, perm2 := perm(r, n), perm(r, n)
		for i := 0; i < n; i++ {
			p1[i] = symbols[perm1[i]]
			p2[i] = symbols[perm2[i]]
		}
		c1, c2 := CycleCrossover(p1, p2)
		if !c1.IsPermutationOf(p1) || !c2.IsPermutationOf(p1) {
			return false
		}
		for i := 0; i < n; i++ {
			if c1[i] != p1[i] && c1[i] != p2[i] {
				return false
			}
			if c2[i] != p1[i] && c2[i] != p2[i] {
				return false
			}
			// Children are complementary: together they use both parent
			// values at each position.
			if c1[i] == p1[i] && c2[i] != p2[i] && p1[i] != p2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCycleCrossoverPanicsOnMismatch(t *testing.T) {
	for _, pair := range [][2]Chromosome{
		{Chromosome{1, 2}, Chromosome{1, 2, 3}},
		{Chromosome{1, 2, 3}, Chromosome{1, 2, 4}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CycleCrossover(%v, %v) did not panic", pair[0], pair[1])
				}
			}()
			CycleCrossover(pair[0], pair[1])
		}()
	}
}

func TestSwapMutationChangesExactlyTwoPositions(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		orig := Chromosome{0, 1, 2, 3, 4, 5, 6, 7}
		c := orig.Clone()
		SwapMutation(c, r)
		if !c.IsPermutationOf(orig) {
			t.Fatalf("mutation broke permutation: %v", c)
		}
		diff := 0
		for i := range c {
			if c[i] != orig[i] {
				diff++
			}
		}
		if diff != 2 {
			t.Fatalf("mutation changed %d positions, want exactly 2: %v", diff, c)
		}
	}
}

func TestSwapMutationTinyChromosomes(t *testing.T) {
	r := rng.New(6)
	c := Chromosome{42}
	SwapMutation(c, r)
	if c[0] != 42 {
		t.Error("single-element chromosome mutated")
	}
	var empty Chromosome
	SwapMutation(empty, r) // must not panic
}
