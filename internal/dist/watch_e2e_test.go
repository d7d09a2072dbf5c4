package dist_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pnsched/internal/core"
	"pnsched/internal/dist"
	"pnsched/internal/jobs"
	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// recordingObserver captures every delivered event as a formatted
// record, preserving delivery order.
type recordingObserver struct {
	mu      sync.Mutex
	records []string
}

func (r *recordingObserver) add(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.records = append(r.records, s)
}

func (r *recordingObserver) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.records...)
}

func (r *recordingObserver) funcs() observe.Funcs {
	return observe.Funcs{
		BatchDecided:   func(e observe.BatchDecision) { r.add(fmt.Sprintf("batch:%+v", e)) },
		GenerationBest: func(e observe.GenerationBest) { r.add(fmt.Sprintf("gen:%+v", e)) },
		Migration:      func(e observe.Migration) { r.add(fmt.Sprintf("mig:%+v", e)) },
		Dispatch:       func(e observe.Dispatch) { r.add(fmt.Sprintf("disp:%+v", e)) },
		BudgetStop:     func(e observe.BudgetStop) { r.add(fmt.Sprintf("budget:%+v", e)) },
	}
}

// streamingConfig is a PN open job wired to the given broadcaster,
// which carries both the pool's events and the GA scheduler's.
func streamingConfig(b *dist.Broadcaster) jobs.Config {
	cfg := fastConfig()
	cfg.Observer = b // GA-level events flow straight into the stream
	return jobs.Config{Open: core.NewPN(cfg, rng.New(1)), PoolConfig: dist.PoolConfig{Events: b}}
}

// startStreamingServer is startServer plus event streaming.
func startStreamingServer(t *testing.T, queue int) (*jobs.Dispatcher, *dist.Broadcaster, string) {
	t.Helper()
	b := dist.NewBroadcaster(queue, 0)
	srv, addr := serveOpen(t, streamingConfig(b))
	return srv, b, addr
}

// waitForSubscribers blocks until exactly n watch clients are
// subscribed.
func waitForSubscribers(t *testing.T, b *dist.Broadcaster, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(b.Watchers()) != n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d watch subscribers (have %d)", n, len(b.Watchers()))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchClientsSeeIdenticalStreams runs the full live system — a PN
// server, two workers, two watch clients — and checks both clients
// receive the same events in the same order, covering every event
// source (server batch/dispatch and GA generations), with nothing
// dropped when the clients keep up.
func TestWatchClientsSeeIdenticalStreams(t *testing.T) {
	// A queue deep enough that no frame is ever dropped: the streams
	// must be complete, not merely consistent.
	srv, b, addr := startStreamingServer(t, 1<<16)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var recs [2]recordingObserver
	var watchers [2]*dist.Watcher
	for i := range watchers {
		w, err := dist.WatchEvents(ctx, addr, recs[i].funcs())
		if err != nil {
			t.Fatalf("WatchEvents %d: %v", i, err)
		}
		watchers[i] = w
	}
	waitForSubscribers(t, b, 2)

	var wg sync.WaitGroup
	for _, w := range []struct {
		name string
		rate units.Rate
	}{{"slow", 50}, {"fast", 200}} {
		wg.Add(1)
		go func(name string, rate units.Rate) {
			defer wg.Done()
			err := dist.RunWorker(ctx, addr, dist.WorkerConfig{
				Name: name, Rate: rate, TimeScale: 2e-4,
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
	}, rng.New(7))
	srv.Append(tasks)
	if err := srv.WaitOpen(30 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// Closing the server ends both streams; Wait must report a clean
	// end (nil), not an error.
	srv.Close()
	for i, w := range watchers {
		if err := w.Wait(); err != nil {
			t.Fatalf("watcher %d Wait: %v", i, err)
		}
		if d := w.Dropped(); d != 0 {
			t.Errorf("watcher %d dropped %d frames with a %d-frame queue", i, d, 1<<16)
		}
	}

	s0, s1 := recs[0].snapshot(), recs[1].snapshot()
	if len(s0) == 0 {
		t.Fatal("watch clients received no events")
	}
	if len(s0) != len(s1) {
		t.Fatalf("clients received %d vs %d events", len(s0), len(s1))
	}
	for i := range s0 {
		if s0[i] != s1[i] {
			t.Fatalf("event %d diverges:\n  client0: %s\n  client1: %s", i, s0[i], s1[i])
		}
	}
	var batches, dispatches, generations int
	for _, r := range s0 {
		switch {
		case len(r) > 5 && r[:5] == "batch":
			batches++
		case len(r) > 4 && r[:4] == "disp":
			dispatches++
		case len(r) > 3 && r[:3] == "gen":
			generations++
		}
	}
	if batches == 0 || generations == 0 {
		t.Errorf("stream missing event sources: %d batch, %d generation events", batches, generations)
	}
	if dispatches != len(tasks) {
		t.Errorf("stream carried %d dispatch events, want one per task (%d)", dispatches, len(tasks))
	}

	cancel()
	wg.Wait()
}

// TestWatchClientMidRunDisconnect starts a watcher, tears it down in
// the middle of a live run, and checks the run is entirely unaffected:
// every task completes and the subscriber count returns to zero.
func TestWatchClientMidRunDisconnect(t *testing.T) {
	srv, b, addr := startStreamingServer(t, 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var rec recordingObserver
	w, err := dist.WatchEvents(ctx, addr, rec.funcs())
	if err != nil {
		t.Fatalf("WatchEvents: %v", err)
	}
	waitForSubscribers(t, b, 1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := dist.RunWorker(ctx, addr, dist.WorkerConfig{
			Name: "only", Rate: 100, TimeScale: 1e-4,
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("worker: %v", err)
		}
	}()
	waitForWorkers(t, srv, 1)

	tasks := workload.Generate(workload.Spec{
		N:     80,
		Sizes: workload.Uniform{Lo: 100, Hi: 800},
	}, rng.New(3))
	srv.Append(tasks)

	// Disconnect the watcher as soon as it has seen something.
	deadline := time.Now().Add(10 * time.Second)
	for w.Frames() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher saw no events before the run finished")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("mid-run Close: %v", err)
	}

	if err := srv.WaitOpen(30 * time.Second); err != nil {
		t.Fatalf("Wait after watcher disconnect: %v", err)
	}
	if snap := srv.Snapshot(); snap.Completed != snap.Submitted || snap.Completed != len(tasks) {
		t.Fatalf("completed %d of %d after watcher disconnect", snap.Completed, snap.Submitted)
	}
	waitForSubscribers(t, b, 0) // the server noticed the hangup

	cancel()
	srv.Close()
	wg.Wait()
}
