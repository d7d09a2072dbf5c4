package core

import (
	"fmt"
	"testing"

	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// Layer benchmark of one PN batch decision, problem snapshot to
// assignment, at the two shapes the end-to-end workloads run it in:
// 200 tasks on 8 workers for 300 generations (svc-pn's live job) and
// on 50 processors for 100 generations (sim-paper's decision, as the
// core.evolve probes run it). The budget is unlimited, so every
// decision runs to its generation cap.

// pnBenchShapes are the two shapes, as sub-benchmark names and their
// generation caps.
var pnBenchShapes = []struct {
	procs, gens int
}{
	{liveBenchProcs, liveBenchGens},
	{evolveBenchProcs, 100},
}

// pnBenchInput returns the batch and the system view of a decision on
// benchProblem(evolveBenchTasks, m, 4242).
func pnBenchInput(m int) ([]task.Task, sched.State) {
	p := benchProblem(evolveBenchTasks, m, 4242)
	return p.Batch, &stubState{m: m, rates: p.Rates, comm: p.Comm, firstIdle: units.Inf()}
}

// BenchmarkScheduleBatchPN is one steady-state PN.ScheduleBatch: the
// scheduler and its stream persist across iterations, as one
// simulation's do.
func BenchmarkScheduleBatchPN(b *testing.B) {
	for _, shape := range pnBenchShapes {
		b.Run(fmt.Sprintf("M=%d", shape.procs), func(b *testing.B) {
			batch, s := pnBenchInput(shape.procs)
			cfg := DefaultConfig()
			cfg.Generations = shape.gens
			pn := NewPN(cfg, rng.New(1))
			pn.ScheduleBatch(batch, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a, _ := pn.ScheduleBatch(batch, s); a.Tasks() != len(batch) {
					b.Fatalf("assignment holds %d of %d tasks", a.Tasks(), len(batch))
				}
			}
		})
	}
}
