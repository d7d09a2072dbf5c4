package pnsched_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pnsched"
)

// jobWorkload builds one job's tasks. Every call with the same seed
// returns an identical workload, which keeps the fair-share virtual
// time — charged in total work — equal across jobs and the admission
// order deterministic.
func jobWorkload(seed uint64) []pnsched.Task {
	return pnsched.GenerateTasks(12, pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(seed))
}

// startJobWorker runs one worker against the dispatcher until ctx is
// cancelled, failing the test on any other exit. The returned channel
// is closed when the worker has returned.
func startJobWorker(ctx context.Context, t *testing.T, wg *sync.WaitGroup, addr, name string) <-chan struct{} {
	t.Helper()
	wg.Add(1)
	exited := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(exited)
		err := pnsched.RunWorker(ctx, addr, pnsched.WorkerConfig{
			Name: name, Rate: 100, TimeScale: 2e-4,
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("worker %s: %v", name, err)
		}
	}()
	return exited
}

// TestJobServiceEndToEnd drives the whole public job surface in one
// live run: ServeJobs under weighted fair share, eight jobs from two
// unequal tenants submitted over the wire, workers joining — and one
// churning away mid-run — then per-job results, the queue listing, the
// stats snapshot and the admin /metrics families.
func TestJobServiceEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Worker churn: one worker joins mid-run and drops out again 40ms
	// after the pool admits it. Its in-flight tasks reissue from the
	// jobs' retry budgets; every job must still finish.
	churnCtx, churnCancel := context.WithCancel(ctx)
	defer churnCancel()
	churnLeft := make(chan int, 1) // the pool's worker count once the churner is gone

	var mu sync.Mutex
	var started []string // tenant per JobStarted, in admission order
	svc, err := pnsched.ServeJobs(ctx,
		pnsched.WithAdmissionPolicy(pnsched.AdmissionFairShare),
		pnsched.WithTenantWeight("gold", 3),
		pnsched.WithTenantWeight("free", 1),
		pnsched.WithServeObserver(pnsched.ObserverFuncs{
			JobStarted: func(e pnsched.JobStartedEvent) {
				mu.Lock()
				started = append(started, e.Tenant)
				mu.Unlock()
			},
			WorkerJoined: func(e pnsched.WorkerJoinedEvent) {
				if e.Name == "churner" {
					time.AfterFunc(40*time.Millisecond, churnCancel)
				}
			},
			WorkerLeft: func(e pnsched.WorkerLeftEvent) {
				if e.Name == "churner" {
					churnLeft <- e.Workers
				}
			},
		}),
		pnsched.WithAdminAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("ServeJobs: %v", err)
	}
	defer svc.Close()
	addr := svc.Addr().String()

	// All eight jobs go in before any worker exists so the stride walk
	// over the queue is exact: with gold weighted 3:1 over free and
	// equal-work jobs, gold's extra submissions admit three-for-one.
	tenants := []string{"gold", "free", "gold", "free", "gold", "free", "gold", "gold"}
	var ids []string
	for i, tenant := range tenants {
		info, err := pnsched.SubmitJob(ctx, addr, pnsched.JobRequest{
			Tenant:    tenant,
			Scheduler: pnsched.MustSpec("MX"),
			Tasks:     jobWorkload(7),
		})
		if err != nil {
			t.Fatalf("SubmitJob %d: %v", i, err)
		}
		if info.Tenant != tenant || info.Scheduler != "MX" {
			t.Fatalf("submitted job %d came back as %+v", i, info)
		}
		ids = append(ids, info.ID)
	}

	var wg sync.WaitGroup
	startJobWorker(ctx, t, &wg, addr, "steady-1")
	startJobWorker(ctx, t, &wg, addr, "steady-2")
	churnExited := make(chan (<-chan struct{}), 1)
	time.AfterFunc(30*time.Millisecond, func() {
		churnExited <- startJobWorker(churnCtx, t, &wg, addr, "churner")
	})

	for _, id := range ids {
		info, err := svc.WaitJob(id, 30*time.Second)
		if err != nil {
			t.Fatalf("WaitJob(%s): %v", id, err)
		}
		if info.State != pnsched.JobDone || info.Completed != info.Tasks {
			t.Fatalf("job %s ended %+v, want done and fully completed", id, info)
		}
	}

	// The observed admission order is the stride schedule: gold's first
	// job, free lifted level and winning its tie, then weight 3:1.
	mu.Lock()
	got := append([]string(nil), started...)
	mu.Unlock()
	want := []string{"gold", "free", "gold", "gold", "gold", "free", "gold", "free"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("fair-share start order %v, want %v", got, want)
	}

	// The wire result agrees with the workload: every task accounted
	// for, split across the workers that served the job.
	res, err := pnsched.FetchResult(ctx, addr, ids[0])
	if err != nil {
		t.Fatalf("FetchResult: %v", err)
	}
	sum := 0
	for _, w := range res.Workers {
		sum += w.Tasks
	}
	if res.State != pnsched.JobDone || res.Completed != 12 || sum != 12 || res.Duration <= 0 {
		t.Errorf("result %+v (worker sum %d), want 12 tasks accounted", res, sum)
	}

	// The default spec path: an empty Scheduler selects the paper's PN.
	info, err := svc.Submit(pnsched.JobRequest{Tasks: jobWorkload(8)})
	if err != nil {
		t.Fatalf("Submit default spec: %v", err)
	}
	if info.Scheduler != "PN" || info.Tenant != "default" {
		t.Errorf("default submission %+v, want PN scheduler under the default tenant", info)
	}
	if _, err := svc.Cancel(info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}

	queue, err := pnsched.JobQueue(ctx, addr)
	if err != nil {
		t.Fatalf("JobQueue: %v", err)
	}
	if len(queue) != 9 {
		t.Errorf("queue lists %d jobs, want all 9 retained", len(queue))
	}
	if _, err := pnsched.JobStatus(ctx, addr, "job-9999"); err == nil ||
		!strings.Contains(err.Error(), "unknown job") {
		t.Errorf("JobStatus of unknown job: %v, want an unknown-job error", err)
	}

	// The pool is counted once the churner is gone from both sides: the
	// pool has dropped it (the event carries the count it left behind)
	// and its worker has returned.
	select {
	case n := <-churnLeft:
		if n != 2 {
			t.Errorf("pool holds %d workers once the churner left, want the 2 steady ones", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the churner never left the pool")
	}
	<-<-churnExited

	snap := svc.Snapshot()
	if snap.Jobs == nil || snap.Jobs.Done != 8 || snap.Jobs.Cancelled != 1 || snap.Jobs.Running != 0 {
		t.Errorf("snapshot jobs %+v, want 8 done and 1 cancelled", snap.Jobs)
	}
	if len(snap.Workers) != 2 {
		t.Errorf("snapshot keeps %d workers, want the 2 steady ones", len(snap.Workers))
	}

	// The admin endpoint exposes the job-level pnsched_jobs_* series next
	// to the pool-level pnsched_* ones every service exports.
	metrics := parsePrometheus(t, scrapeMetrics(t, "http://"+svc.AdminAddr().String()))
	for name, want := range map[string]float64{
		"pnsched_jobs_submitted_total":                   9,
		`pnsched_jobs_finished_total{state="done"}`:      8,
		`pnsched_jobs_finished_total{state="cancelled"}`: 1,
		"pnsched_tasks_completed_total":                  8 * 12,
		"pnsched_tasks_submitted_total":                  9 * 12,
		"pnsched_workers":                                2,
	} {
		if got := metrics[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if metrics["pnsched_batches_total"] <= 0 {
		t.Error("pnsched_batches_total not incremented")
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cancel()
	wg.Wait()
}

// TestJobRetryBudgetFailsJobOverWire kills the only worker while its
// job's tasks are in flight: with a zero retry budget the reissue is
// unaffordable and JobStatus must report the failure, over the wire,
// with the budget explanation.
func TestJobRetryBudgetFailsJobOverWire(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	svc, err := pnsched.ServeJobs(ctx)
	if err != nil {
		t.Fatalf("ServeJobs: %v", err)
	}
	defer svc.Close()
	addr := svc.Addr().String()

	zero := 0
	info, err := pnsched.SubmitJob(ctx, addr, pnsched.JobRequest{
		Scheduler:   pnsched.MustSpec("MX"),
		RetryBudget: &zero,
		// Big enough that tasks are still on the worker when it dies:
		// 2e5 MFLOPs at rate 100 and TimeScale 2e-4 is 0.4s wall each.
		Tasks: pnsched.GenerateTasks(4, pnsched.Constant{Size: 2e5}, pnsched.NewRNG(1)),
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}

	var wg sync.WaitGroup
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	startJobWorker(wctx, t, &wg, addr, "doomed")

	deadline := time.Now().Add(10 * time.Second)
	for svc.Snapshot().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tasks never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}
	wcancel()

	final, err := svc.WaitJob(info.ID, 10*time.Second)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != pnsched.JobFailed {
		t.Fatalf("job state %s, want failed", final.State)
	}
	remote, err := pnsched.JobStatus(ctx, addr, info.ID)
	if err != nil {
		t.Fatalf("JobStatus: %v", err)
	}
	if remote.State != pnsched.JobFailed || !strings.Contains(remote.Error, "retry budget") {
		t.Errorf("wire status %+v, want failed with the retry-budget explanation", remote)
	}
	if remote.Retries == 0 {
		t.Error("failed job reports zero retries")
	}
	wg.Wait()
}

// TestCancelJobFreesWorkersOverWire cancels a running job over the
// wire and checks its leased workers return to the pool: the next job
// in the queue must run to completion on the freed worker.
func TestCancelJobFreesWorkersOverWire(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	svc, err := pnsched.ServeJobs(ctx)
	if err != nil {
		t.Fatalf("ServeJobs: %v", err)
	}
	defer svc.Close()
	addr := svc.Addr().String()

	// j1 grinds one long task (~1s wall); j2 is trivial but starves
	// behind it until the cancel releases the worker.
	j1, err := svc.Submit(pnsched.JobRequest{
		Scheduler: pnsched.MustSpec("MX"),
		Tasks:     pnsched.GenerateTasks(1, pnsched.Constant{Size: 5e5}, pnsched.NewRNG(1)),
	})
	if err != nil {
		t.Fatalf("Submit j1: %v", err)
	}
	j2, err := svc.Submit(pnsched.JobRequest{
		Scheduler: pnsched.MustSpec("MX"),
		Tasks:     pnsched.GenerateTasks(3, pnsched.Constant{Size: 100}, pnsched.NewRNG(2)),
	})
	if err != nil {
		t.Fatalf("Submit j2: %v", err)
	}

	var wg sync.WaitGroup
	startJobWorker(ctx, t, &wg, addr, "only")

	deadline := time.Now().Add(10 * time.Second)
	for svc.Snapshot().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("j1 never dispatched")
		}
		time.Sleep(time.Millisecond)
	}

	info, err := pnsched.CancelJob(ctx, addr, j1.ID)
	if err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	if info.State != pnsched.JobCancelled || info.Workers != 0 {
		t.Fatalf("cancelled job %+v, want cancelled with no leased workers", info)
	}

	done, err := svc.WaitJob(j2.ID, 20*time.Second)
	if err != nil {
		t.Fatalf("WaitJob(j2): %v", err)
	}
	if done.State != pnsched.JobDone {
		t.Fatalf("j2 state %s after cancel freed the worker, want done", done.State)
	}
	cancel()
	wg.Wait()
}

// TestServeJobsValidation covers the rejection paths of the public
// surface: bad options at startup and bad specs at submission, both
// in-process and over the wire.
func TestServeJobsValidation(t *testing.T) {
	ctx := context.Background()
	if svc, err := pnsched.ServeJobs(ctx, pnsched.WithTenantWeight("a", -1)); err == nil {
		svc.Close()
		t.Error("ServeJobs accepted a negative tenant weight")
	}
	if svc, err := pnsched.ServeJobs(ctx, pnsched.WithAdmissionPolicy("lifo")); err == nil {
		svc.Close()
		t.Error("ServeJobs accepted an unknown admission policy")
	}

	svc, err := pnsched.ServeJobs(ctx)
	if err != nil {
		t.Fatalf("ServeJobs: %v", err)
	}
	defer svc.Close()
	addr := svc.Addr().String()

	// An immediate-mode scheduler has no batch form for a job to run
	// under; the submission is rejected up front, spec construction
	// happening at submit time.
	_, err = svc.Submit(pnsched.JobRequest{
		Scheduler: pnsched.MustSpec("EF"),
		Tasks:     jobWorkload(1),
	})
	if err == nil || !strings.Contains(err.Error(), "immediate-mode") {
		t.Errorf("immediate-mode spec: %v, want the batch-requirement error", err)
	}
	// Over the wire the same rejections travel in-band.
	if _, err := pnsched.SubmitJob(ctx, addr, pnsched.JobRequest{
		Scheduler: pnsched.Spec{Name: "NOPE"},
		Tasks:     jobWorkload(1),
	}); err == nil {
		t.Error("unknown scheduler accepted over the wire")
	}
	if _, err := pnsched.SubmitJob(ctx, addr, pnsched.JobRequest{}); err == nil {
		t.Error("empty workload accepted over the wire")
	}
}
