package ga

import (
	"testing"

	"pnsched/internal/rng"
)

// BenchmarkEngineStep times one generation at paper scale: population
// 20 and chromosomes of length 249, a batch of 200 tasks (symbols 0…199)
// over 50 processors (49 delimiters, -49…-1). The plain row scores
// every slot every generation; the slot row runs the caching double,
// which serves clones, unchanged children and the elite from its
// cache. Both read 0 allocs/op.
func BenchmarkEngineStep(b *testing.B) {
	const tasks, procs, pop = 200, 50, 20
	for _, bc := range []struct {
		name string
		eval func() Evaluator
	}{
		{"plain", func() Evaluator { return sortednessEvaluator{} }},
		{"slot", func() Evaluator { return &cachingSlotEval{inner: sortednessEvaluator{}} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := rng.New(1)
			initial := make([]Chromosome, pop)
			for i := range initial {
				initial[i] = Chromosome(perm(r, tasks+procs-1))
				for k := range initial[i] {
					initial[i][k] -= procs - 1
				}
			}
			e := NewEngine(Config{PopulationSize: pop, MaxGenerations: 1 << 30, Elitism: true}, bc.eval(), initial, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
