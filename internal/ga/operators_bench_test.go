package ga

import (
	"testing"

	"pnsched/internal/rng"
)

// parents builds two random permutations of n mixed-sign symbols (task
// ids plus delimiter-style negatives), the GA's production shape.
func parents(n int, r *rng.RNG) (Chromosome, Chromosome) {
	symbols := make([]int, n)
	for i := range symbols {
		symbols[i] = i - n/8 // a few negatives, mostly non-negative
	}
	p1 := make(Chromosome, n)
	p2 := make(Chromosome, n)
	for i, v := range perm(r, n) {
		p1[i] = symbols[v]
	}
	for i, v := range perm(r, n) {
		p2[i] = symbols[v]
	}
	return p1, p2
}

// benchCX times the in-place kernel the way the engine calls it: two
// destinations and a scratch that have served this shape before, so the
// row reads 0 allocs/op.
func benchCX(b *testing.B, p1, p2 Chromosome) {
	c1, c2, s := make(Chromosome, len(p1)), make(Chromosome, len(p1)), new(Scratch)
	CX(c1, c2, p1, p2, s, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CX(c1, c2, p1, p2, s, nil)
	}
}

func BenchmarkCycleCrossover250(b *testing.B) {
	p1, p2 := parents(250, rng.New(1)) // batch 200 + 50 processors
	benchCX(b, p1, p2)
}

// BenchmarkCycleCrossoverConverged breeds the pairs the engine sends
// once its micro-population converges: parents that agree at about 90 %
// of positions, the rest shuffled among themselves.
func BenchmarkCycleCrossoverConverged(b *testing.B) {
	r := rng.New(1)
	p1, _ := parents(250, r)
	p2 := p1.Clone()
	at := perm(r, len(p1))[:len(p1)/10]
	for k, j := range perm(r, len(at)) {
		p2[at[k]] = p1[at[j]]
	}
	benchCX(b, p1, p2)
}

func BenchmarkCycleCrossoverSparse(b *testing.B) {
	// Sparse symbols force the map-based index path.
	r := rng.New(2)
	n := 250
	p1 := make(Chromosome, n)
	for i := range p1 {
		p1[i] = i * 100000
	}
	p2 := p1.Clone()
	r.Shuffle(n, func(i, j int) { p2[i], p2[j] = p2[j], p2[i] })
	benchCX(b, p1, p2)
}

func BenchmarkRouletteWheel(b *testing.B) {
	r := rng.New(3)
	fitness := make([]float64, 20)
	for i := range fitness {
		fitness[i] = r.Float64()
	}
	s := new(Scratch)
	s.roulette(fitness, 20, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.roulette(fitness, 20, r)
	}
}

func BenchmarkSwapMutation(b *testing.B) {
	r := rng.New(4)
	c := Chromosome(perm(r, 250))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SwapMutation(c, r)
	}
}

func TestCycleCrossoverSparseSymbols(t *testing.T) {
	// Exercise the map fallback: symbols spread over a huge range.
	p1 := Chromosome{0, 1 << 30, -(1 << 30), 42}
	p2 := Chromosome{42, -(1 << 30), 1 << 30, 0}
	c1, c2 := CycleCrossover(p1, p2)
	if !c1.IsPermutationOf(p1) || !c2.IsPermutationOf(p1) {
		t.Errorf("sparse crossover broke permutations: %v %v", c1, c2)
	}
	for i := range p1 {
		if c1[i] != p1[i] && c1[i] != p2[i] {
			t.Errorf("position %d not from either parent", i)
		}
	}
}

func TestCycleCrossoverEmptyParents(t *testing.T) {
	c1, c2 := CycleCrossover(Chromosome{}, Chromosome{})
	if len(c1) != 0 || len(c2) != 0 {
		t.Error("empty parents produced non-empty children")
	}
}
