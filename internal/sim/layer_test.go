package sim

import (
	"testing"

	"pnsched/internal/cluster"
	"pnsched/internal/network"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/workload"
)

// Layer benchmark of the simulator's event loop on sim-heur's shape in
// bench/: 50 processors with rates uniform in [10, 100], a 1 s mean link
// cost with spread 0.5 and jitter 0.2, and Min-min in batches of 200
// over tasks that all arrive at t=0.

// heurConfig returns a fresh sim-heur-shaped run of n tasks. The
// network keeps per-run state (its sampling stream and estimators), so
// every run needs its own.
func heurConfig(n int, seed uint64) Config {
	r := rng.New(seed)
	return Config{
		Cluster: cluster.NewHeterogeneous(50, 10, 100, r.Stream(1)),
		Net: network.New(50, network.Config{MeanCost: 1, LinkSpread: 0.5, Jitter: 0.2},
			r.Stream(2)),
		Tasks: workload.Generate(workload.Spec{N: n, Sizes: workload.Normal{Mean: 1000, Variance: 9e5}},
			r.Stream(3)),
		Scheduler: sched.MM{},
	}
}

// BenchmarkSimRunMM is one 10,000-task Min-min run; set-up (cluster,
// network and tasks) is outside the timer.
func BenchmarkSimRunMM(b *testing.B) {
	const n = 10_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := heurConfig(n, uint64(i%8))
		b.StartTimer()
		if res := Run(cfg); res.Completed != n {
			b.Fatalf("completed %d of %d", res.Completed, n)
		}
	}
}

// TestSimRunAllocatesLessThanOncePerTask pins the loop's allocations on
// BenchmarkSimRunMM's run: fewer than one per task. What is left is per
// batch and per run; boxing a per-task event again (an arrival, a
// completion's bookkeeping) or letting a task escape costs at least one
// more per task.
func TestSimRunAllocatesLessThanOncePerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const n = 10_000
	cfg := heurConfig(n, 1)
	allocs := testing.AllocsPerRun(2, func() {
		if res := Run(cfg); res.Completed != n {
			t.Fatalf("completed %d of %d", res.Completed, n)
		}
	})
	if allocs >= n {
		t.Errorf("a %d-task run allocates %v times, %.2f per task, want fewer than 1 per task", n, allocs, allocs/n)
	}
}
