package pnsched_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"pnsched"
)

// ExampleRun drives the paper's PN genetic-algorithm scheduler over a
// synthetic workload in the discrete-event simulator — the library
// equivalent of `pnsim -sched PN`.
func ExampleRun() {
	// A deterministic system: same config, same cluster, network and
	// tasks — the property the paper's comparison studies rely on.
	w, err := pnsched.GenerateWorkload(pnsched.WorkloadConfig{
		Tasks: 200, Procs: 8, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	spec, err := pnsched.NewSpec("PN",
		pnsched.WithGenerations(60),
		pnsched.WithBatch(50),
		pnsched.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	res, err := pnsched.Run(context.Background(), spec, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d/%d tasks\n", res.Completed, len(w.Tasks))
	// Output: completed 200/200 tasks
}

// ExampleServe runs the live counterpart of Run: the same Spec, but
// scheduling a real worker over TCP instead of simulated processors.
func ExampleServe() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	spec := pnsched.MustSpec("PN",
		pnsched.WithGenerations(40),
		pnsched.WithBatch(40),
		pnsched.WithSeed(1))
	srv, err := pnsched.Serve(ctx, spec) // ephemeral 127.0.0.1 port
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Normally a pnworker process on another machine; here an in-process
	// worker with simulated execution, heavily time-compressed.
	go pnsched.RunWorker(ctx, srv.Addr().String(), pnsched.WorkerConfig{
		Name: "w1", Rate: 100, TimeScale: 2e-4,
	})

	if err := srv.Submit(pnsched.GenerateTasks(20, pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(7))); err != nil {
		log.Fatal(err)
	}
	if err := srv.Wait(30 * time.Second); err != nil {
		log.Fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("completed %d/%d tasks\n", st.Completed, st.Submitted)
	// Output: completed 20/20 tasks
}

// ExampleServe_adminEndpoint enables the HTTP admin endpoint alongside
// the scheduling port: /metrics serves the runtime telemetry in
// Prometheus text exposition format, /healthz answers liveness probes,
// and /debug/pprof/ profiles the live process — what `pnserver -admin`
// exposes, in library form.
func ExampleServe_adminEndpoint() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	srv, err := pnsched.Serve(ctx, pnsched.MustSpec("PN",
		pnsched.WithGenerations(40),
		pnsched.WithBatch(40),
		pnsched.WithSeed(1)),
		pnsched.WithAdminAddr("127.0.0.1:0"))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	go pnsched.RunWorker(ctx, srv.Addr().String(), pnsched.WorkerConfig{
		Name: "w1", Rate: 100, TimeScale: 2e-4,
	})
	srv.Submit(pnsched.GenerateTasks(20, pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(7)))
	if err := srv.Wait(30 * time.Second); err != nil {
		log.Fatal(err)
	}

	// Scrape the completed run the way Prometheus would.
	resp, err := http.Get("http://" + srv.AdminAddr().String() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "pnsched_tasks_completed_total") ||
			strings.HasPrefix(line, "pnsched_ga_runs_total") {
			fmt.Println(line)
		}
	}
	// Output:
	// pnsched_ga_runs_total 1
	// pnsched_tasks_completed_total 20
}

// ExampleWatch subscribes to a live server's event stream from a
// second connection and replays it into a typed Observer — the same
// interface Run drives, so instrumentation works unchanged on
// simulated and real deployments.
func ExampleWatch() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	srv, err := pnsched.Serve(ctx, pnsched.MustSpec("PN",
		pnsched.WithGenerations(40),
		pnsched.WithBatch(40),
		pnsched.WithSeed(1)))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	var dispatches atomic.Int64
	w, err := pnsched.Watch(ctx, srv.Addr().String(), pnsched.ObserverFuncs{
		Dispatch: func(pnsched.DispatchEvent) { dispatches.Add(1) },
	})
	if err != nil {
		log.Fatal(err)
	}
	for srv.Stats().Watchers == 0 { // subscribed before any task moves
		time.Sleep(time.Millisecond)
	}

	go pnsched.RunWorker(ctx, srv.Addr().String(), pnsched.WorkerConfig{
		Name: "w1", Rate: 100, TimeScale: 2e-4,
	})
	srv.Submit(pnsched.GenerateTasks(12, pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(7)))
	if err := srv.Wait(30 * time.Second); err != nil {
		log.Fatal(err)
	}
	srv.Close()                      // ends the event stream...
	if err := w.Wait(); err != nil { // ...so the watcher drains and returns
		log.Fatal(err)
	}
	fmt.Printf("observed %d dispatches\n", dispatches.Load())
	// Output: observed 12 dispatches
}

// ExampleRegister adds an external scheduler to the registry, making
// it reachable from every construction surface in the repo — New,
// pnsim -sched, scenario JSON files.
func ExampleRegister() {
	pnsched.RegisterInfo(pnsched.Info{
		Name:    "FIRST",
		Summary: "everything on processor 0 (don't)",
	}, func(pnsched.Spec, *pnsched.RNG) (pnsched.Scheduler, error) {
		return firstProc{}, nil
	})

	info, _ := pnsched.Describe("first") // lookups are case-insensitive
	fmt.Printf("%s: %s\n", info.Name, info.Summary)

	s, err := pnsched.New(pnsched.Spec{Name: "FIRST"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("constructed", s.Name())
	// Output:
	// FIRST: everything on processor 0 (don't)
	// constructed FIRST
}

// firstProc is the ExampleRegister scheduler: an immediate-mode
// scheduler that sends every task to processor 0.
type firstProc struct{}

func (firstProc) Name() string                               { return "FIRST" }
func (firstProc) Assign(_ pnsched.Task, _ pnsched.State) int { return 0 }

// The option shapes bench/ hands ServeJobs, pinned where tier-1 compiles
// them: a ServeOption is a JobsOption as it stands, and the two options
// kept under their ServeJobs-only names forward to the shared ones.
var _ = []pnsched.JobsOption{
	pnsched.WithAdminAddr("127.0.0.1:0"),
	pnsched.WithJobsAdminAddr("127.0.0.1:0"),
	pnsched.WithJobsObserver(pnsched.ObserverFuncs{}),
}
