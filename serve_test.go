package pnsched_test

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pnsched"
	"pnsched/internal/dist"
	"pnsched/internal/sched"
)

// fastServeSpec is a PN spec trimmed so every batch schedules in well
// under a second.
func fastServeSpec(t *testing.T) pnsched.Spec {
	t.Helper()
	spec, err := pnsched.NewSpec("PN",
		pnsched.WithGenerations(40),
		pnsched.WithBatch(40),
		pnsched.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestServeEndToEnd drives the whole public distributed API: Serve a
// PN scheduler, connect two workers with RunWorker, watch the run from
// two Watch clients, and check completion, per-worker stats, and that
// both remote observers saw the same number of dispatches as tasks.
// The whole run publishes fewer frames than a watcher's queue holds,
// so no frame can be dropped however slowly the watchers read: two
// worker_joined, then per batch of 40 at most 41 generation_best, a
// budget_stop, an evolve_done and a batch_decided, then one dispatch
// per task — 2 + 2×44 + 80 = 170 frames for 80 tasks.
func TestServeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	srv, err := pnsched.Serve(ctx, fastServeSpec(t))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	type counts struct {
		mu                  sync.Mutex
		batches, dispatches int
	}
	var seen [2]counts
	var watchers [2]*pnsched.Watcher
	for i := range watchers {
		c := &seen[i]
		w, err := pnsched.Watch(ctx, addr, pnsched.ObserverFuncs{
			BatchDecided: func(pnsched.BatchDecision) {
				c.mu.Lock()
				c.batches++
				c.mu.Unlock()
			},
			Dispatch: func(pnsched.DispatchEvent) {
				c.mu.Lock()
				c.dispatches++
				c.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("Watch %d: %v", i, err)
		}
		watchers[i] = w
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Watchers != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("watchers never subscribed: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup
	for _, w := range []struct {
		name string
		rate pnsched.Rate
	}{{"slow", 50}, {"fast", 200}} {
		wg.Add(1)
		go func(name string, rate pnsched.Rate) {
			defer wg.Done()
			err := pnsched.RunWorker(ctx, addr, pnsched.WorkerConfig{
				Name: name, Rate: rate, TimeScale: 2e-4,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %s: %v", name, err)
			}
		}(w.name, w.rate)
	}
	for srv.Stats().Workers != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("workers never registered: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	tasks := pnsched.GenerateTasks(80, pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(7))
	srv.Submit(tasks)
	if err := srv.Wait(30 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	st := srv.Stats()
	if st.Completed != len(tasks) || st.Submitted != len(tasks) {
		t.Fatalf("Stats = %+v, want %d submitted and completed", st, len(tasks))
	}
	ws := srv.Snapshot().Workers
	total := 0
	for _, w := range ws {
		total += w.Completed
	}
	if len(ws) != 2 || total != len(tasks) {
		t.Fatalf("Snapshot().Workers = %+v, want 2 workers totalling %d completions", ws, len(tasks))
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, w := range watchers {
		if err := w.Wait(); err != nil {
			t.Fatalf("watcher %d Wait: %v", i, err)
		}
		if d := w.Dropped(); d != 0 {
			t.Errorf("watcher %d dropped %d frames", i, d)
		}
		if f := w.Frames(); f > dist.DefaultEventQueue {
			t.Errorf("watcher %d received %d frames, more than its %d-frame queue: drops were left to timing",
				i, f, dist.DefaultEventQueue)
		}
		seen[i].mu.Lock()
		b, d := seen[i].batches, seen[i].dispatches
		seen[i].mu.Unlock()
		if d != len(tasks) {
			t.Errorf("watcher %d saw %d dispatches, want %d", i, d, len(tasks))
		}
		if b == 0 {
			t.Errorf("watcher %d saw no batch decisions", i)
		}
	}

	cancel()
	wg.Wait()
}

// TestServeSnapshotAndReplay drives the operability surface of the
// public API in one run: a late Watch subscriber catching up on the
// server's replay ring and the stats snapshot, both in-process
// (Server.Snapshot) and over the wire (FetchStats). The run fits the
// ring: a worker_joined, one batch of 30 with at most 11
// generation_best, a budget_stop, an evolve_done and a batch_decided,
// and 30 dispatches — 45 of its 64 frames.
func TestServeSnapshotAndReplay(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	srv, err := pnsched.Serve(ctx, fastServeSpec(t).With(pnsched.WithGenerations(10)))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := pnsched.RunWorker(ctx, addr, pnsched.WorkerConfig{
			Name: "only", Rate: 100, TimeScale: 2e-4,
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("worker: %v", err)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Workers != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// Run a full workload to completion with nobody watching.
	tasks := pnsched.GenerateTasks(30, pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(7))
	srv.Submit(tasks)
	if err := srv.Wait(30 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	// A watcher arriving after the fact still sees the whole run: the
	// replay ring is larger than the event count, so every dispatch
	// replays into its Observer.
	var mu sync.Mutex
	dispatches, joins := 0, 0
	w, err := pnsched.Watch(ctx, addr, pnsched.ObserverFuncs{
		Dispatch: func(pnsched.DispatchEvent) {
			mu.Lock()
			dispatches++
			mu.Unlock()
		},
		WorkerJoined: func(pnsched.WorkerJoinedEvent) {
			mu.Lock()
			joins++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	for {
		mu.Lock()
		d := dispatches
		mu.Unlock()
		if d == len(tasks) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late watcher replayed %d dispatches, want %d", d, len(tasks))
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if joins != 1 {
		t.Errorf("late watcher replayed %d worker_joined events, want 1", joins)
	}
	mu.Unlock()
	if d := w.Dropped(); d != 0 {
		t.Errorf("replay counted %d drops; history must not count as dropped", d)
	}

	// Snapshot: the in-process and over-the-wire views agree on the
	// completed run.
	snap := srv.Snapshot()
	remote, err := pnsched.FetchStats(ctx, addr)
	if err != nil {
		t.Fatalf("FetchStats: %v", err)
	}
	for _, s := range []pnsched.ServerSnapshot{snap, remote} {
		if s.Submitted != len(tasks) || s.Completed != len(tasks) || s.Pending != 0 || s.Running != 0 {
			t.Errorf("snapshot counters = %+v, want %d submitted and completed, none in flight", s, len(tasks))
		}
		if len(s.Workers) != 1 || s.Workers[0].Completed != len(tasks) {
			t.Errorf("snapshot workers = %+v, want one worker with %d completions", s.Workers, len(tasks))
		}
		if s.Latency.Samples == 0 || s.Latency.P50 <= 0 {
			t.Errorf("snapshot latency %+v, want populated quantiles", s.Latency)
		}
		if s.Batches == 0 || s.Uptime <= 0 {
			t.Errorf("snapshot batches=%d uptime=%v, want both positive", s.Batches, s.Uptime)
		}
	}
	if len(remote.Watchers) != 1 {
		t.Errorf("remote snapshot watchers = %+v, want the one live watcher", remote.Watchers)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Wait(); err != nil {
		t.Fatalf("watcher Wait: %v", err)
	}
	if f := w.Frames(); f >= dist.DefaultEventReplay {
		t.Errorf("late watcher replayed %d frames, a full %d-frame ring: the run's start may have been evicted",
			f, dist.DefaultEventReplay)
	}
	cancel()
	wg.Wait()
}

// TestServeRejectsImmediateSchedulers checks the one rule Serve adds
// on top of Run's validation: immediate-mode schedulers have no batch
// form for the live server to drive.
func TestServeRejectsImmediateSchedulers(t *testing.T) {
	for _, name := range []string{"EF", "LL", "RR", "MET", "OLB", "KPB"} {
		srv, err := pnsched.Serve(context.Background(), pnsched.MustSpec(name))
		if err == nil {
			srv.Close()
			t.Errorf("Serve accepted immediate-mode scheduler %s", name)
			continue
		}
		if !strings.Contains(err.Error(), "immediate-mode") {
			t.Errorf("Serve(%s) error %q does not explain the batch requirement", name, err)
		}
	}
}

// TestServeValidationParity feeds the same invalid Specs to Run, Serve
// and a ServeJobs submission and requires identical rejections: all
// funnel through the shared Validate, so a spec that cannot run in the
// simulator cannot be served live either — with the same explanation.
// The one documented difference is the zero Spec, which a job
// submission reads as "the default scheduler".
func TestServeValidationParity(t *testing.T) {
	w, err := pnsched.GenerateWorkload(pnsched.WorkloadConfig{Tasks: 5, Procs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	four := 4
	zero := 0
	svc, err := pnsched.ServeJobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cases := []struct {
		name string
		spec pnsched.Spec
	}{
		{"empty name", pnsched.Spec{}},
		{"unknown name", pnsched.Spec{Name: "NOPE"}},
		{"negative generations", pnsched.Spec{Name: "PN", Generations: -1}},
		{"negative population", pnsched.Spec{Name: "PN", Population: -3}},
		{"negative batch", pnsched.Spec{Name: "PN", Batch: -200}},
		{"island fields on PN", pnsched.Spec{Name: "PN", Islands: &four}},
		{"migrants on ZO", pnsched.Spec{Name: "ZO", Migrants: 2}},
		{"zero islands", pnsched.Spec{Name: "PN-ISLAND", Islands: &zero}},
		{"negative migration interval", pnsched.Spec{Name: "PN-ISLAND", MigrationInterval: -5}},
		{"migrants not below population", pnsched.Spec{Name: "PN-ISLAND", Population: 10, Migrants: 10}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, runErr := pnsched.Run(context.Background(), c.spec, w)
			srv, serveErr := pnsched.Serve(context.Background(), c.spec)
			if serveErr == nil {
				srv.Close()
				t.Fatalf("Serve accepted a spec Run rejects with %q", runErr)
			}
			if runErr == nil {
				t.Fatalf("Run accepted a spec Serve rejects with %q", serveErr)
			}
			if runErr.Error() != serveErr.Error() {
				t.Errorf("divergent rejections:\n  Run:   %v\n  Serve: %v", runErr, serveErr)
			}
			_, jobErr := svc.Submit(pnsched.JobRequest{Scheduler: c.spec, Tasks: w.Tasks})
			if c.spec.Name == "" {
				if jobErr != nil {
					t.Errorf("job submission rejected the zero Spec: %v", jobErr)
				}
			} else if jobErr == nil || jobErr.Error() != runErr.Error() {
				t.Errorf("divergent rejections:\n  Run:       %v\n  ServeJobs: %v", runErr, jobErr)
			}
		})
	}
}

// TestServeOptions hands every ServeOption to both constructors, which
// must accept, reject and honour it alike.
func TestServeOptions(t *testing.T) {
	type live interface {
		Addr() net.Addr
		AdminAddr() net.Addr
		Close() error
	}
	ctx := context.Background()
	constructors := map[string]func(...pnsched.ServeOption) (live, error){
		"Serve": func(opts ...pnsched.ServeOption) (live, error) {
			s, err := pnsched.Serve(ctx, pnsched.MustSpec("MM"), opts...)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
		"ServeJobs": func(opts ...pnsched.ServeOption) (live, error) {
			jobsOpts := make([]pnsched.JobsOption, len(opts))
			for i, o := range opts {
				jobsOpts[i] = o
			}
			s, err := pnsched.ServeJobs(ctx, jobsOpts...)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	}
	t.Run("unbindable admin address", func(t *testing.T) {
		var texts []string
		for ctor, start := range constructors {
			s, err := start(pnsched.WithAdminAddr("127.0.0.1:-1"))
			if err == nil {
				s.Close()
				t.Fatalf("%s accepted it", ctor)
			}
			texts = append(texts, err.Error())
		}
		if texts[0] != texts[1] {
			t.Errorf("divergent rejections: %q vs %q", texts[0], texts[1])
		}
	})
	for ctor, start := range constructors {
		t.Run("all five shared options/"+ctor, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			s, err := start(
				pnsched.WithListenAddr("127.0.0.1:1"), // the listener below wins
				pnsched.WithListener(ln),
				pnsched.WithServeLog(slog.New(slog.DiscardHandler)),
				pnsched.WithAdminAddr("127.0.0.1:0"),
				pnsched.WithServeObserver(pnsched.ObserverFuncs{}))
			if err != nil {
				ln.Close()
				t.Fatal(err)
			}
			defer s.Close()
			if s.Addr().String() != ln.Addr().String() {
				t.Errorf("listening on %v, want the WithListener listener %v", s.Addr(), ln.Addr())
			}
			if s.AdminAddr() == nil {
				t.Error("no admin endpoint despite WithAdminAddr")
			}
			if _, err := pnsched.FetchStats(ctx, ln.Addr().String()); err != nil {
				t.Errorf("the handed-in listener is not served: %v", err)
			}
		})
	}
}

// TestServeContextCancel checks cancelling the Serve context closes
// the server: Wait unblocks with ErrServerClosed.
func TestServeContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := pnsched.Serve(ctx, fastServeSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Submit(pnsched.GenerateTasks(5, pnsched.Constant{Size: 100}, pnsched.NewRNG(1)))
	errc := make(chan error, 1)
	go func() { errc <- srv.Wait(0) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, pnsched.ErrServerClosed) {
			t.Fatalf("Wait after ctx cancel = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not unblock after ctx cancel")
	}
}

// runTasks takes one batch of tasks to completion on a live runtime.
type runTasks = func([]pnsched.Task) error

// liveRuntimes is the live half of the Serve/Run parity table: the two
// runtimes that sit on the one worker pool, each brought up under spec
// with obs attached. A row returns its address, its worker count, and
// how to run one batch of tasks to completion; what a row must do is
// what the tests ranging over the table require of both.
var liveRuntimes = map[string]func(t *testing.T, ctx context.Context, spec pnsched.Spec, obs pnsched.Observer) (addr string, workers func() int, run runTasks){
	"Serve": func(t *testing.T, ctx context.Context, spec pnsched.Spec, obs pnsched.Observer) (string, func() int, runTasks) {
		srv, err := pnsched.Serve(ctx, spec, pnsched.WithServeObserver(obs))
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv.Addr().String(), func() int { return srv.Stats().Workers }, func(ts []pnsched.Task) error {
			srv.Submit(ts)
			return srv.Wait(30 * time.Second)
		}
	},
	"ServeJobs": func(t *testing.T, ctx context.Context, spec pnsched.Spec, obs pnsched.Observer) (string, func() int, runTasks) {
		svc, err := pnsched.ServeJobs(ctx, pnsched.WithServeObserver(obs))
		if err != nil {
			t.Fatalf("ServeJobs: %v", err)
		}
		t.Cleanup(func() { svc.Close() })
		return svc.Addr().String(), func() int { return len(svc.Snapshot().Workers) }, func(ts []pnsched.Task) error {
			info, err := svc.Submit(pnsched.JobRequest{Scheduler: spec, Tasks: ts})
			if err != nil {
				return err
			}
			_, err = svc.WaitJob(info.ID, 30*time.Second)
			return err
		}
	},
}

// forEachLiveRuntime runs body as one subtest per liveRuntimes row.
// body's start brings the row up under spec with obs attached and two
// equal workers registered, and returns how to run one batch of tasks
// to completion.
func forEachLiveRuntime(t *testing.T, spec pnsched.Spec, body func(t *testing.T, start func(pnsched.Observer) runTasks)) {
	for name, row := range liveRuntimes {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			defer wg.Wait()
			defer cancel()
			body(t, func(obs pnsched.Observer) runTasks {
				addr, workers, run := row(t, ctx, spec, obs)
				startJobWorker(ctx, t, &wg, addr, "w1")
				startJobWorker(ctx, t, &wg, addr, "w2")
				for deadline := time.Now().Add(10 * time.Second); workers() != 2; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("workers never registered")
					}
				}
				return run
			})
		})
	}
}

// TestLiveGAEvolvesOnDrainedWorkers is the end-to-end regression for
// the float residue a drained worker's pending load used to keep: with
// fractional task sizes the residue made TimeUntilFirstIdle ≈ 0, the
// §3.4 budget was spent before it started, and every GA run after the
// first stopped at generation 0 — the paper's scheduler was not really
// running in the live service. Both runtimes sit on one worker pool, so
// both rows must evolve their second batch.
func TestLiveGAEvolvesOnDrainedWorkers(t *testing.T) {
	// The first batch's placement is a function of the seeds alone
	// (equal claimed rates, nothing loaded); workload seed 3 is one
	// whose sizes, summed and un-summed in dispatch order, used to
	// leave a positive residue on both workers.
	batches := [][]pnsched.Task{
		pnsched.GenerateTasks(40, pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(3)),
		pnsched.GenerateTasks(40, pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(8)),
	}
	forEachLiveRuntime(t, fastServeSpec(t), func(t *testing.T, start func(pnsched.Observer) runTasks) {
		var mu sync.Mutex
		var generations []int
		run := start(pnsched.ObserverFuncs{
			EvolveDone: func(e pnsched.EvolveDoneEvent) {
				mu.Lock()
				generations = append(generations, e.Generations)
				mu.Unlock()
			},
		})
		for i, ts := range batches {
			if err := run(ts); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if len(generations) != 2 || generations[0] == 0 || generations[1] == 0 {
			t.Errorf("generations per evolve = %v, want two runs that both evolved", generations)
		}
	})
}

// registerBareMM registers Min-min bare, as an external package
// would: a batch scheduler with no sizing of its own.
var registerBareMM = sync.OnceFunc(func() {
	pnsched.Register("test-bare-mm", func(pnsched.Spec, *pnsched.RNG) (pnsched.Scheduler, error) { return sched.MM{}, nil })
})

// TestLiveRuntimesHonourSpecBatch is the regression for the batch cap
// the live runtimes used to drop: they are handed only the scheduler,
// never SizerFor's verdict, so a batch heuristic built from a Spec must
// size its own batches or MM with Batch 64 runs at the default 200.
// The built-in MM must, and so must a registered bare one (the bare
// row).
func TestLiveRuntimesHonourSpecBatch(t *testing.T) {
	registerBareMM()
	tasks := pnsched.GenerateTasks(256, pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(5))
	check := func(t *testing.T, spec pnsched.Spec) {
		forEachLiveRuntime(t, spec, func(t *testing.T, start func(pnsched.Observer) runTasks) {
			var mu sync.Mutex
			var sizes []int
			run := start(pnsched.ObserverFuncs{
				BatchDecided: func(e pnsched.BatchDecision) {
					mu.Lock()
					sizes = append(sizes, e.Tasks)
					mu.Unlock()
				},
			})
			if err := run(tasks); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			total, largest := 0, 0
			for _, n := range sizes {
				total += n
				largest = max(largest, n)
			}
			if largest > 64 || total != len(tasks) {
				t.Errorf("batch sizes %v: want all %d tasks in batches of at most Spec.Batch 64", sizes, len(tasks))
			}
		})
	}
	check(t, pnsched.Spec{Name: "MM", Batch: 64})
	t.Run("bare", func(t *testing.T) { check(t, pnsched.Spec{Name: "test-bare-mm", Batch: 64}) })
}
