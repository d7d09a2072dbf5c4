// Distributed: run the paper's system for real — a PN scheduling
// server, four heterogeneous workers, and a remote observer watching
// the scheduler's event stream, all talking JSON over loopback TCP
// (the §6 future-work deployment, in one process for convenience).
// Time is compressed 1000× so the demo finishes in seconds; remove
// -timescale in cmd/pnworker for real-time behaviour across machines.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"os"
	"sync"
	"time"

	"pnsched"
)

func main() {
	// The server wraps the registry-constructed PN scheduler behind
	// the public API; everything below talks to it over TCP.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := pnsched.MustSpec("PN",
		pnsched.WithGenerations(300),
		pnsched.WithDynamicBatch(true),
		pnsched.WithSeed(1))
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv, err := pnsched.Serve(ctx, spec, pnsched.WithServeLog(logger))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()
	fmt.Printf("scheduler listening on %s\n", addr)

	// A remote observer: the same typed events an in-process Observer
	// sees, streamed over the wire as versioned frames.
	watcher, err := pnsched.Watch(ctx, addr, pnsched.ObserverFuncs{
		BatchDecided: func(e pnsched.BatchDecision) {
			logger.Info("watch: batch decided", "invocation", e.Invocation,
				"tasks", e.Tasks, "workers", e.Procs, "cost", float64(e.Cost))
		},
		BudgetStop: func(e pnsched.BudgetStopEvent) {
			logger.Info("watch: GA budget stop", "generation", e.Generation)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Four workers with very different speeds; processing is
	// compressed 1000x (1 simulated second = 1ms).
	var wg sync.WaitGroup
	for i, rate := range []pnsched.Rate{40, 80, 160, 320} {
		wg.Add(1)
		go func(i int, rate pnsched.Rate) {
			defer wg.Done()
			err := pnsched.RunWorker(ctx, addr, pnsched.WorkerConfig{
				Name:      fmt.Sprintf("worker-%d@%v", i, rate),
				Rate:      rate,
				TimeScale: 0.001, // Execute below compresses 1000x
				Execute: func(t pnsched.Task) time.Duration {
					d := time.Duration(float64(t.Size.TimeOn(rate)) * float64(time.Millisecond))
					time.Sleep(d)
					return d
				},
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				logger.Warn("worker failed", "worker", i, "err", err)
			}
		}(i, rate)
	}

	tasks := pnsched.GenerateTasks(400,
		pnsched.Normal{Mean: 1000, Variance: 9e5}, pnsched.NewRNG(2))
	var total pnsched.MFlops
	for _, t := range tasks {
		total += t.Size
	}
	fmt.Printf("submitting %d tasks (%.0f MFLOPs total)\n", len(tasks), float64(total))

	start := time.Now()
	if err := srv.Submit(tasks); err != nil {
		log.Fatal(err)
	}
	if err := srv.Wait(2 * time.Minute); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	st := srv.Stats()
	fmt.Printf("\ncompleted %d/%d tasks across %d workers in %v (reissued %d)\n",
		st.Completed, st.Submitted, st.Workers, elapsed.Round(time.Millisecond), st.Reissued)
	fmt.Println("the server rated each link and worker from live traffic (§3.6 smoothing)")

	cancel()
	srv.Close()
	wg.Wait()
	watcher.Wait()
	fmt.Printf("remote observer received %d events over the wire (%d dropped)\n",
		watcher.Frames(), watcher.Dropped())
}
