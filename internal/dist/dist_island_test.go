package dist_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pnsched/internal/core"
	"pnsched/internal/dist"
	"pnsched/internal/jobs"
	"pnsched/internal/rng"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// TestEndToEndIslandScheduler drives the live TCP runtime with the
// island-model PN scheduler instead of the sequential one: the server
// must behave as a drop-in — every task completes exactly once across
// heterogeneous workers, with the faster worker doing more of them.
func TestEndToEndIslandScheduler(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Generations = 40
	cfg.InitialBatch = 40
	srv, addr := serveOpen(t, jobs.Config{Open: core.NewPNIsland(cfg,
		core.IslandConfig{Islands: 2, MigrationInterval: 5, Migrants: 1}, rng.New(21))})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, w := range []struct {
		name string
		rate units.Rate
	}{{"slow", 50}, {"fast", 200}} {
		wg.Add(1)
		go func(name string, rate units.Rate) {
			defer wg.Done()
			// TimeScale 1e-3 (1 simulated second = 1ms), not the 2e-4
			// other e2e tests use: the elapsed/real ratio scales any
			// real-clock jitter the comm estimate picks up into the
			// simulated clock, and under the race detector millisecond
			// scheduling noise at 5000× was large enough to equalise the
			// workers' task counts and flake the fast>slow assertion.
			// 1000× plus the server's comm noise floor keeps the estimate
			// honest.
			err := dist.RunWorker(ctx, addr, dist.WorkerConfig{
				Name:      name,
				Rate:      rate,
				TimeScale: 1e-3,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %s: %v", name, err)
			}
		}(w.name, w.rate)
	}
	waitForWorkers(t, srv, 2)

	tasks := workload.Generate(workload.Spec{
		N:     120,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, rng.New(22))
	srv.Append(tasks)
	if err := srv.WaitOpen(30 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if snap := srv.Snapshot(); snap.Submitted != len(tasks) || snap.Completed != len(tasks) {
		t.Fatalf("Snapshot: submitted %d completed %d, want both %d", snap.Submitted, snap.Completed, len(tasks))
	}
	byName := map[string]dist.WorkerSnapshot{}
	for _, ws := range srv.Snapshot().Workers {
		byName[ws.Name] = ws
	}
	if fast, slow := byName["fast"], byName["slow"]; fast.Completed <= slow.Completed {
		t.Errorf("fast worker completed %d tasks, slow %d; want fast > slow",
			fast.Completed, slow.Completed)
	}

	cancel()
	srv.Close()
	wg.Wait()
}
