package sched

import (
	"testing"

	"pnsched/internal/rng"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// BenchmarkMMBatchH200M50 is one Min-min batch of 200 tasks over 50
// idle processors with rates uniform in [10, 100], the shape of the
// sched.mm_batch_us_h200_m50 probe in bench/.
func BenchmarkMMBatchH200M50(b *testing.B) {
	r := rng.New(1)
	batch := workload.Generate(workload.Spec{N: 200, Sizes: workload.Normal{Mean: 1000, Variance: 9e5}}, r.Stream(1))
	rr := r.Stream(2)
	rates := make([]units.Rate, 50)
	for j := range rates {
		rates[j] = units.Rate(rr.Uniform(10, 100))
	}
	st := newFake(rates, make([]units.MFlops, len(rates)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a, _ := (MM{}).ScheduleBatch(batch, st); a.Tasks() != len(batch) {
			b.Fatalf("assigned %d of %d", a.Tasks(), len(batch))
		}
	}
}
