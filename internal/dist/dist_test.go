package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pnsched/internal/core"
	"pnsched/internal/dist"
	"pnsched/internal/jobs"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// fastConfig returns a PN configuration trimmed for tests: the full GA
// machinery, but few enough generations that every batch schedules in
// well under a second.
func fastConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Generations = 40
	cfg.InitialBatch = 40
	return cfg
}

// startServer spins up a dispatcher running the open job with the PN
// scheduler on an ephemeral loopback port — what pnsched.Serve runs —
// returning it and its address.
func startServer(t *testing.T, cfg core.Config, seed uint64) (*jobs.Dispatcher, string) {
	t.Helper()
	return serveOpen(t, jobs.Config{Open: core.NewPN(cfg, rng.New(seed))})
}

// serveOpen starts a dispatcher on an ephemeral loopback port.
func serveOpen(t *testing.T, cfg jobs.Config) (*jobs.Dispatcher, string) {
	t.Helper()
	srv, err := jobs.New(cfg)
	if err != nil {
		t.Fatalf("jobs.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// waitForWorkers blocks until n workers are registered with the server.
func waitForWorkers(t *testing.T, srv *jobs.Dispatcher, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(srv.Snapshot().Workers) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d workers to register", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEndToEndLoopback runs the full distributed system over loopback:
// a PN scheduling server and two workers whose rates differ 4×. Every
// task must complete exactly once, and the faster worker must complete
// more tasks — the scheduler's whole point.
func TestEndToEndLoopback(t *testing.T) {
	srv, addr := startServer(t, fastConfig(), 1)

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
			err := dist.RunWorker(ctx, addr, dist.WorkerConfig{
				Name:      name,
				Rate:      rate,
				TimeScale: 2e-4, // 1 simulated second = 0.2ms
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
	snap := srv.Snapshot()
	if snap.Submitted != len(tasks) || snap.Completed != len(tasks) {
		t.Fatalf("Snapshot: submitted %d completed %d, want both %d", snap.Submitted, snap.Completed, len(tasks))
	}
	if len(snap.Workers) != 2 {
		t.Fatalf("Snapshot: %d workers connected, want 2", len(snap.Workers))
	}

	byName := map[string]dist.WorkerSnapshot{}
	for _, ws := range snap.Workers {
		byName[ws.Name] = ws
	}
	slow, fast := byName["slow"], byName["fast"]
	if slow.Completed+fast.Completed != len(tasks) {
		t.Fatalf("per-worker completions %d+%d don't sum to %d",
			slow.Completed, fast.Completed, len(tasks))
	}
	if fast.Completed <= slow.Completed {
		t.Errorf("fast worker (rate %v) completed %d tasks, slow (rate %v) completed %d; want fast > slow",
			fast.Rate, fast.Completed, slow.Rate, slow.Completed)
	}

	cancel()
	srv.Close()
	wg.Wait()
}

// TestWorkerFailureReissue kills one of two equal-rate workers while it
// still holds assigned work, and checks the server reissues the lost
// tasks to the survivor so the workload still completes.
func TestWorkerFailureReissue(t *testing.T) {
	srv, addr := startServer(t, fastConfig(), 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()

	var wg sync.WaitGroup
	start := func(name string, wctx context.Context, wantCancel bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := dist.RunWorker(wctx, addr, dist.WorkerConfig{
				Name:      name,
				Rate:      100,
				TimeScale: 1e-4,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %s: %v", name, err)
			} else if wantCancel && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %s returned %v, want context.Canceled", name, err)
			}
		}()
	}
	start("victim", victimCtx, true)
	start("survivor", ctx, false)
	waitForWorkers(t, srv, 2)

	tasks := workload.Generate(workload.Spec{
		N:     60,
		Sizes: workload.Uniform{Lo: 200, Hi: 1000},
	}, rng.New(9))
	srv.Append(tasks)

	// Let the run get going, then kill the victim while work remains.
	deadline := time.Now().Add(10 * time.Second)
	for {
		victimBusy := false
		snap := srv.Snapshot()
		for _, ws := range snap.Workers {
			if ws.Name == "victim" && ws.Running > 0 {
				victimBusy = true
			}
		}
		comp := snap.Completed
		if victimBusy && comp >= 3 {
			break
		}
		if comp == len(tasks) {
			t.Fatal("workload completed before the victim could be killed; slow the tasks down")
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never became busy")
		}
		time.Sleep(time.Millisecond)
	}
	killVictim()

	if err := srv.WaitOpen(30 * time.Second); err != nil {
		t.Fatalf("Wait after worker failure: %v", err)
	}
	snap := srv.Snapshot()
	if snap.Completed != snap.Submitted {
		t.Fatalf("completed %d of %d after failure", snap.Completed, snap.Submitted)
	}
	if snap.Reissued == 0 {
		t.Error("reissued = 0, want > 0: the victim died holding assigned tasks")
	}

	cancel()
	srv.Close()
	wg.Wait()
}

// TestWorkersJoiningLate submits the workload before any worker exists:
// the server must hold the queue and start scheduling when the machine
// set becomes non-empty (§3.7 dynamic batching over a changing set).
func TestWorkersJoiningLate(t *testing.T) {
	srv, addr := startServer(t, fastConfig(), 3)

	tasks := workload.Generate(workload.Spec{
		N:     50,
		Sizes: workload.Uniform{Lo: 10, Hi: 500},
	}, rng.New(11))
	srv.Append(tasks)

	// Nothing can complete yet.
	if err := srv.WaitOpen(50 * time.Millisecond); err == nil {
		t.Fatal("Wait succeeded with no workers connected")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := dist.RunWorker(ctx, addr, dist.WorkerConfig{
			Name: "late", Rate: 300, TimeScale: 1e-4,
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("worker: %v", err)
		}
	}()

	if err := srv.WaitOpen(30 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if comp := srv.Snapshot().Completed; comp != len(tasks) {
		t.Fatalf("completed %d, want %d", comp, len(tasks))
	}

	cancel()
	srv.Close()
	wg.Wait()
}

// TestServerValidation covers constructor and worker-config errors.
func TestServerValidation(t *testing.T) {
	pn := core.NewPN(fastConfig(), rng.New(1))
	for name, cfg := range map[string]jobs.Config{
		"no scheduler":         {},
		"negative MaxActive":   {Open: pn, MaxActive: -3},
		"negative RetryBudget": {Open: pn, RetryBudget: -1},
		"open job journaled":   {Open: pn, JournalDir: t.TempDir()},
		"open job and a queue": {Open: pn, NewScheduler: func(json.RawMessage) (sched.Batch, error) { return pn, nil }},
	} {
		if d, err := jobs.New(cfg); err == nil {
			d.Close()
			t.Errorf("jobs.New accepted %s", name)
		}
	}
	err := dist.RunWorker(context.Background(), "127.0.0.1:0", dist.WorkerConfig{Rate: 0})
	if err == nil {
		t.Error("RunWorker accepted a non-positive rate")
	}
}

// TestName checks the default worker-name helper is usable as a wire
// identity.
func TestName(t *testing.T) {
	n := dist.Name()
	if n == "" {
		t.Fatal("Name() returned empty string")
	}
	if !strings.Contains(n, "-") {
		t.Errorf("Name() = %q, want host-pid form", n)
	}
}

// TestCloseUnblocksWait checks that Close makes pending Wait calls
// return ErrServerClosed instead of hanging.
// TestWaitTimesOut: a Wait with a deadline returns at the deadline,
// naming how far the run got, when nothing else wakes it — no worker
// ever joins, so the timer's own wake-up is the only one.
func TestWaitTimesOut(t *testing.T) {
	srv, _ := startServer(t, fastConfig(), 4)
	srv.Append([]task.Task{{ID: 0, Size: 100}})
	errc := make(chan error, 1)
	go func() { errc <- srv.WaitOpen(30 * time.Millisecond) }()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "0/1 tasks complete after 30ms") {
			t.Fatalf("Wait returned %v, want the timeout naming 0/1 tasks after 30ms", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait slept past its deadline")
	}
}

// TestServerResetIsHangUp: a server that closes a worker's connection
// while frames it has not read are still arriving makes the kernel
// answer with RST, not FIN. To the worker that is still the server
// hanging up — RunWorker's contract is nil — not a failure of its own.
func TestServerResetIsHangUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		bufio.NewReader(conn).ReadString('\n') // the hello
		conn.Write([]byte(`{"type":"assign","tasks":[{"id":0,"size":1}]}` + "\n"))
		conn.(*net.TCPConn).SetLinger(0) // close by reset, as a close over unread data does
		conn.Close()
	}()
	err = dist.RunWorker(context.Background(), ln.Addr().String(), dist.WorkerConfig{
		Name: "w", Rate: 100, TimeScale: 1e-4,
	})
	if err != nil {
		t.Fatalf("RunWorker after the server reset the connection: %v, want nil", err)
	}
}

func TestCloseUnblocksWait(t *testing.T) {
	srv, _ := startServer(t, fastConfig(), 4)
	srv.Append([]task.Task{{ID: 0, Size: 100}})
	errc := make(chan error, 1)
	go func() { errc <- srv.WaitOpen(0) }()
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	select {
	case err := <-errc:
		if err != dist.ErrServerClosed {
			t.Fatalf("Wait returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after Close")
	}
}
