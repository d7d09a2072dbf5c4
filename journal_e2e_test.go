package pnsched_test

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pnsched"
)

// TestJobJournalCrashRestart kills a journaled dispatcher mid-run and
// restarts it on the same directory: the pre-crash terminal job must
// stay queryable over the wire, the job that was running must be
// re-queued with one retry spent and run to completion, the queued
// backlog must drain in the same weighted fair-share order it would
// have without the crash, and job IDs must keep counting.
func TestJobJournalCrashRestart(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	journalOpts := func(obs pnsched.Observer) []pnsched.JobsOption {
		opts := []pnsched.JobsOption{
			pnsched.WithJobsJournal(dir),
			pnsched.WithAdmissionPolicy(pnsched.AdmissionFairShare),
			pnsched.WithTenantWeight("gold", 3),
			pnsched.WithTenantWeight("free", 1),
			pnsched.WithAdminAddr("127.0.0.1:0"),
		}
		if obs != nil {
			opts = append(opts, pnsched.WithServeObserver(obs))
		}
		return opts
	}

	// ---- first life: one job to completion, then a backlog, then die.
	svc1, err := pnsched.ServeJobs(ctx, journalOpts(nil)...)
	if err != nil {
		t.Fatalf("ServeJobs: %v", err)
	}
	addr1 := svc1.Addr().String()

	var wg1 sync.WaitGroup
	wctx, wcancel := context.WithCancel(ctx)
	startJobWorker(wctx, t, &wg1, addr1, "first-life")

	done1, err := pnsched.SubmitJob(ctx, addr1, pnsched.JobRequest{
		Tenant:    "gold",
		Scheduler: pnsched.MustSpec("MX"),
		Tasks:     jobWorkload(7),
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if info, err := svc1.WaitJob(done1.ID, 30*time.Second); err != nil || info.State != pnsched.JobDone {
		t.Fatalf("first job: %+v, %v; want done", info, err)
	}
	// Drop the worker so the backlog sits exactly where submission put
	// it: one job admitted (running, nothing dispatched), four queued.
	wcancel()
	wg1.Wait()
	// The worker goroutine exiting doesn't mean the dispatcher noticed:
	// wait until the pool is empty so nothing dispatches to a ghost.
	deadline := time.Now().Add(10 * time.Second)
	for len(svc1.Snapshot().Workers) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never dropped the cancelled worker")
		}
		time.Sleep(time.Millisecond)
	}

	tenants := []string{"gold", "free", "gold", "gold", "free"}
	var ids []string
	for i, tenant := range tenants {
		info, err := pnsched.SubmitJob(ctx, addr1, pnsched.JobRequest{
			Tenant:    tenant,
			Scheduler: pnsched.MustSpec("MX"),
			Tasks:     jobWorkload(7),
		})
		if err != nil {
			t.Fatalf("SubmitJob backlog %d: %v", i, err)
		}
		ids = append(ids, info.ID)
	}
	if info, _ := svc1.Status(ids[0]); info.State != pnsched.JobRunning {
		t.Fatalf("backlog head %s state %s, want running before the crash", ids[0], info.State)
	}
	// The crash: no flush call, no cancellation — just gone.
	if err := svc1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// ---- second life: same directory, fresh process state.
	var mu sync.Mutex
	var started []string
	svc2, err := pnsched.ServeJobs(ctx, journalOpts(pnsched.ObserverFuncs{
		JobStarted: func(e pnsched.JobStartedEvent) {
			mu.Lock()
			started = append(started, e.Tenant)
			mu.Unlock()
		},
	})...)
	if err != nil {
		t.Fatalf("ServeJobs (restart): %v", err)
	}
	defer svc2.Close()
	addr2 := svc2.Addr().String()

	// The pre-crash terminal job answers job_status and job_result over
	// the wire with its history intact.
	info, err := pnsched.JobStatus(ctx, addr2, done1.ID)
	if err != nil {
		t.Fatalf("JobStatus(%s) after restart: %v", done1.ID, err)
	}
	if info.State != pnsched.JobDone || info.Completed != 12 {
		t.Errorf("pre-crash job after restart %+v, want done with 12 tasks", info)
	}
	res, err := pnsched.FetchResult(ctx, addr2, done1.ID)
	if err != nil {
		t.Fatalf("FetchResult after restart: %v", err)
	}
	sum := 0
	for _, w := range res.Workers {
		sum += w.Tasks
	}
	if sum != 12 {
		t.Errorf("replayed result accounts for %d tasks across workers, want 12", sum)
	}

	// The interrupted job is back — same ID, one retry spent for the
	// interruption, re-admitted at the head of the stride schedule.
	head, err := svc2.Status(ids[0])
	if err != nil {
		t.Fatalf("Status(%s) after restart: %v", ids[0], err)
	}
	if head.State != pnsched.JobRunning || head.Retries != 1 {
		t.Errorf("interrupted job after restart %+v, want running with 1 retry spent", head)
	}
	for _, id := range ids[1:] {
		if info, err := svc2.Status(id); err != nil || info.State != pnsched.JobQueued {
			t.Errorf("backlog job %s after restart: %+v, %v; want queued", id, info, err)
		}
	}

	// Job IDs keep counting across the restart — no reuse, no reset.
	fresh, err := svc2.Submit(pnsched.JobRequest{
		Tenant:    "free",
		Scheduler: pnsched.MustSpec("MX"),
		Tasks:     jobWorkload(7),
	})
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if fresh.ID != "job-0007" {
		t.Errorf("first post-restart submission got %s, want job-0007", fresh.ID)
	}
	if _, err := svc2.Cancel(fresh.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}

	// Drain the recovered backlog and check the stride order survived:
	// gold's interrupted job resumes first, then free (lifted level at
	// its pre-crash submission), then gold twice, then free.
	var wg2 sync.WaitGroup
	startJobWorker(ctx, t, &wg2, addr2, "second-life")
	for _, id := range ids {
		info, err := svc2.WaitJob(id, 30*time.Second)
		if err != nil {
			t.Fatalf("WaitJob(%s) after restart: %v", id, err)
		}
		if info.State != pnsched.JobDone || info.Completed != 12 {
			t.Errorf("recovered job %s ended %+v, want done and fully completed", id, info)
		}
	}
	mu.Lock()
	got := strings.Join(started, " ")
	mu.Unlock()
	if want := "gold free gold gold free"; got != want {
		t.Errorf("post-restart fair-share start order %q, want %q", got, want)
	}

	// The journal telemetry is live on the restarted instance: records
	// appended, a recovery snapshot written, replay time measured.
	metrics := parsePrometheus(t, scrapeMetrics(t, "http://"+svc2.AdminAddr().String()))
	for _, name := range []string{
		"pnsched_jobs_journal_records_total",
		"pnsched_jobs_journal_bytes_total",
		"pnsched_jobs_journal_snapshots_total",
		"pnsched_jobs_journal_replay_seconds",
	} {
		if metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0 after a journaled restart", name, metrics[name])
		}
	}
	cancel()
	wg2.Wait()
}

// TestJobsHealthzReportsLostDurability: the admin endpoint of a
// journaled dispatcher answers /healthz from the dispatcher's own
// health. The journal directory disappears under the running service;
// appends to the unlinked file still succeed, but the next snapshot
// (due after 256 records) cannot be written, journaling stops, and the
// probe must turn from 200 to 503 with the reason — while the service
// keeps accepting jobs.
func TestJobsHealthzReportsLostDurability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	svc, err := pnsched.ServeJobs(context.Background(),
		pnsched.WithJobsJournal(dir),
		pnsched.WithAdminAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("ServeJobs: %v", err)
	}
	defer svc.Close()
	healthz := func() (int, string) {
		resp, err := http.Get("http://" + svc.AdminAddr().String() + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := healthz(); code != http.StatusOK {
		t.Fatalf("/healthz on a healthy journaled dispatcher: %d %q", code, body)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	job := pnsched.JobRequest{Scheduler: pnsched.MustSpec("MX"), Tasks: jobWorkload(1)[:1]}
	code, body := healthz()
	for i := 0; i < 300 && code == http.StatusOK; i++ {
		if _, err := svc.Submit(job); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		code, body = healthz()
	}
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "no longer durable") {
		t.Errorf("/healthz after the journal failed: %d %q, want 503 naming the lost durability", code, body)
	}
}
