package jobs_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/jobs"
	"pnsched/internal/observe"
	"pnsched/internal/task"
	"pnsched/internal/telemetry"
	"pnsched/internal/units"
)

// startDispatcher boots a dispatcher on a loopback listener and
// returns it with its address.
func startDispatcher(t *testing.T, cfg jobs.Config) (*jobs.Dispatcher, string) {
	t.Helper()
	if cfg.NewScheduler == nil {
		cfg.NewScheduler = testFactory
	}
	d, err := jobs.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() {
		if serveErr := d.Serve(ln); serveErr != nil {
			t.Errorf("Serve: %v", serveErr)
		}
	}()
	t.Cleanup(func() { d.Close() })
	return d, ln.Addr().String()
}

// startWorkers runs n simulated workers against addr until the test
// ends.
func startWorkers(t *testing.T, addr string, n int, rate units.Rate) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		name := "w" + string(rune('A'+i))
		go func(name string) {
			defer wg.Done()
			err := dist.RunWorker(ctx, addr, dist.WorkerConfig{
				Name:      name,
				Rate:      rate,
				TimeScale: 2e-4,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %s: %v", name, err)
			}
		}(name)
	}
	t.Cleanup(func() { cancel(); wg.Wait() })
}

func manyTasks(tenant string, n int, size float64) dist.JobSubmission {
	sub := dist.JobSubmission{Tenant: tenant}
	for i := 0; i < n; i++ {
		sub.Tasks = append(sub.Tasks, task.Task{ID: task.ID(i), Size: units.MFlops(size)})
	}
	return sub
}

// TestJobLifecycleOverWire runs the full client → dispatcher → worker
// path: submit over the wire, watch it complete, fetch status, queue,
// result and stats over the wire.
func TestJobLifecycleOverWire(t *testing.T) {
	d, addr := startDispatcher(t, jobs.Config{PoolConfig: dist.PoolConfig{Events: dist.NewBroadcaster(64, 0)}})
	startWorkers(t, addr, 2, 100)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	info, err := dist.SubmitJob(ctx, addr, manyTasks("acme", 40, 50))
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if info.ID == "" || info.Tenant != "acme" || info.Tasks != 40 {
		t.Fatalf("submit reply: %+v", info)
	}

	if _, err := d.Wait(info.ID, 20*time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	st, err := dist.FetchJobStatus(ctx, addr, info.ID)
	if err != nil {
		t.Fatalf("FetchJobStatus: %v", err)
	}
	if st.State != jobs.StateDone || st.Completed != 40 {
		t.Fatalf("status after completion: %+v", st)
	}

	queue, err := dist.FetchJobQueue(ctx, addr)
	if err != nil {
		t.Fatalf("FetchJobQueue: %v", err)
	}
	if len(queue) != 1 || queue[0].ID != info.ID {
		t.Fatalf("queue: %+v", queue)
	}

	res, err := dist.FetchJobResult(ctx, addr, info.ID)
	if err != nil {
		t.Fatalf("FetchJobResult: %v", err)
	}
	if res.State != jobs.StateDone || res.Completed != 40 || res.Elapsed <= 0 {
		t.Fatalf("result: %+v", res)
	}
	var workerTasks int
	for _, w := range res.Workers {
		workerTasks += w.Tasks
	}
	if workerTasks != 40 {
		t.Fatalf("per-worker tasks sum to %d, want 40", workerTasks)
	}

	snap, err := dist.FetchStats(ctx, addr)
	if err != nil {
		t.Fatalf("FetchStats: %v", err)
	}
	if snap.Jobs == nil || snap.Jobs.Done != 1 || snap.Completed != 40 {
		t.Fatalf("stats snapshot: jobs %+v completed %d", snap.Jobs, snap.Completed)
	}

	// Unknown job errors arrive in-band, not as dropped connections.
	if _, err := dist.FetchJobStatus(ctx, addr, "job-9999"); err == nil ||
		!strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("unknown-job error = %v", err)
	}
}

// TestRetryBudgetExhaustedOverWire connects a worker that accepts an
// assignment and dies without reporting. With a zero retry budget the
// reissue must fail the job, and the failure must surface in
// JobStatus.
func TestRetryBudgetExhaustedOverWire(t *testing.T) {
	d, addr := startDispatcher(t, jobs.Config{})

	zero := 0
	sub := manyTasks("acme", 4, 1000)
	sub.RetryBudget = &zero
	info, err := d.Submit(sub)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// A hand-rolled worker: hello, swallow one assignment, vanish.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	enc := json.NewEncoder(conn)
	if err := enc.Encode(map[string]any{"type": "hello", "name": "flaky", "rate": 100}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	br := bufio.NewReader(conn)
	if _, err := dist.ReadFrame(br); err != nil {
		t.Fatalf("read assignment: %v", err)
	}
	conn.Close()

	final, err := d.Wait(info.ID, 10*time.Second)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != jobs.StateFailed {
		t.Fatalf("job state %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "retry budget") {
		t.Fatalf("failure reason %q does not name the retry budget", final.Error)
	}
	if final.Retries == 0 {
		t.Fatal("failed job reports zero retries")
	}
}

// TestCancelReleasesWorkers cancels a running job and requires the
// next queued job to start and finish promptly on the freed workers.
func TestCancelReleasesWorkers(t *testing.T) {
	d, addr := startDispatcher(t, jobs.Config{})
	startWorkers(t, addr, 1, 100)

	// j1's single large task occupies the worker for ~1s of wall clock
	// at this TimeScale; j2 is trivial.
	j1, err := d.Submit(manyTasks("acme", 1, 5e5))
	if err != nil {
		t.Fatalf("Submit j1: %v", err)
	}
	j2, err := d.Submit(manyTasks("beta", 2, 10))
	if err != nil {
		t.Fatalf("Submit j2: %v", err)
	}

	// Wait until j1's task is actually on the worker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := d.Snapshot()
		if snap.Running > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("j1 never dispatched")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cinfo, err := dist.CancelJob(ctx, addr, j1.ID)
	if err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	if cinfo.State != jobs.StateCancelled || cinfo.Workers != 0 {
		t.Fatalf("cancelled job: state %s leased %d", cinfo.State, cinfo.Workers)
	}

	// The worker is still grinding j1's in-flight task (it cannot be
	// recalled), but the lease is free: j2 must run to completion
	// behind it.
	if final, err := d.Wait(j2.ID, 30*time.Second); err != nil || final.State != jobs.StateDone {
		t.Fatalf("j2 after cancel: %+v, %v", final, err)
	}
}

// TestOldMinorWatcherSkipsJobKinds plays a protocol-1.2 watch client
// against the dispatcher, raw JSON on the socket: the job lifecycle
// kinds must arrive tagged with minor 3 — which the 1.2 decode rules
// treat as skippable-unknown rather than fatal — and the sequence
// numbers crossing them must stay contiguous, so an old client's
// gap detection sees no loss when it ignores the new kinds.
func TestOldMinorWatcherSkipsJobKinds(t *testing.T) {
	d, addr := startDispatcher(t, jobs.Config{PoolConfig: dist.PoolConfig{Events: dist.NewBroadcaster(256, 0)}})
	startWorkers(t, addr, 1, 100)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	// The watch handshake a 1.2 client sends, raw on the socket.
	if err := json.NewEncoder(conn).Encode(map[string]any{
		"type":  "watch",
		"proto": map[string]int{"major": 1, "minor": 2},
	}); err != nil {
		t.Fatalf("watch request: %v", err)
	}
	br := bufio.NewReader(conn)
	welcome, err := dist.ReadFrame(br)
	if err != nil {
		t.Fatalf("welcome: %v", err)
	}
	var w struct {
		Type  string `json:"type"`
		Proto struct {
			Major int `json:"major"`
			Minor int `json:"minor"`
		} `json:"proto"`
	}
	if err := json.Unmarshal(welcome, &w); err != nil || w.Type != "welcome" {
		t.Fatalf("welcome frame %s: %v", welcome, err)
	}
	if w.Proto.Major != 1 || w.Proto.Minor != 3 {
		t.Fatalf("welcome proto %d.%d, want 1.3", w.Proto.Major, w.Proto.Minor)
	}

	info, err := d.Submit(manyTasks("acme", 3, 20))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := d.Wait(info.ID, 20*time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	// Read frames until job_done shows up; a 1.2 client knows only the
	// kinds of minors ≤ 2, so everything newer must both declare a
	// newer minor and keep seq contiguous.
	known12 := map[string]bool{
		"batch_decided": true, "generation_best": true, "migration": true,
		"dispatch": true, "budget_stop": true, "evolve_done": true,
		"worker_joined": true, "worker_left": true,
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var (
		lastSeq  uint64
		haveSeq  bool
		jobKinds []string
	)
	for {
		line, err := dist.ReadFrame(br)
		if err != nil {
			t.Fatalf("event read: %v (saw job kinds %v)", err, jobKinds)
		}
		var f struct {
			Type string `json:"type"`
			Kind string `json:"kind"`
			Seq  uint64 `json:"seq"`
			V    struct {
				Major int `json:"major"`
				Minor int `json:"minor"`
			} `json:"v"`
		}
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("bad frame %s: %v", line, err)
		}
		if f.Type != "event" {
			continue
		}
		if haveSeq && f.Seq != lastSeq+1 {
			t.Fatalf("seq gap: %d after %d (kind %s)", f.Seq, lastSeq, f.Kind)
		}
		lastSeq, haveSeq = f.Seq, true
		if !known12[f.Kind] {
			// New-to-1.2 kind: skippable only if it declares a newer minor.
			if f.V.Minor < 3 {
				t.Fatalf("unknown kind %q declares minor %d; a 1.2 client would hard-fail",
					f.Kind, f.V.Minor)
			}
			jobKinds = append(jobKinds, f.Kind)
		}
		if f.Kind == "job_done" {
			break
		}
	}
	joined := strings.Join(jobKinds, ",")
	for _, want := range []string{"job_queued", "job_started", "job_done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("watch stream missing %s (saw %s)", want, joined)
		}
	}
}

// awaitWorkers polls until n workers are connected.
func awaitWorkers(t *testing.T, d *jobs.Dispatcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(d.Snapshot().Workers) != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d workers", n)
		}
	}
}

// TestJobEventsLeaveInCommitOrder holds the observer inside a job's
// job_queued while the one worker finishes the job's only task. The
// worker's goroutine commits job_done while the submitter's is still
// delivering, and job_done must still arrive after job_queued and
// job_started, in the order the lock committed them.
func TestJobEventsLeaveInCommitOrder(t *testing.T) {
	var mu sync.Mutex
	var kinds []string
	record := func(kind string) {
		mu.Lock()
		kinds = append(kinds, kind)
		mu.Unlock()
	}
	delivered := make(chan struct{})
	obs := observe.Funcs{
		JobQueued: func(observe.JobQueued) {
			select {
			case <-delivered:
			case <-time.After(500 * time.Millisecond):
			}
			record("queued")
		},
		JobStarted: func(observe.JobStarted) { record("started") },
		JobDone: func(observe.JobDone) {
			record("done")
			close(delivered)
		},
	}
	d, addr := startDispatcher(t, jobs.Config{PoolConfig: dist.PoolConfig{Observer: obs}})
	startWorkers(t, addr, 1, 100)
	awaitWorkers(t, d, 1)

	info, err := d.Submit(oneTask("acme", 10))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := d.Wait(info.ID, 10*time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("job_done never delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if got := strings.Join(kinds, ","); got != "queued,started,done" {
		t.Errorf("observer saw %s, want queued,started,done", got)
	}
}

// TestJournaledBeforeJobDone runs one journaled job on one worker. The
// job's finish record is in journal.jsonl by the time job_done reaches
// an observer, and the done reports go out in fewer writes than they
// make records: the reports a read finds together are committed
// together, and the last task's record shares its write with the
// finish record at least.
func TestJournaledBeforeJobDone(t *testing.T) {
	dir := t.TempDir()
	checked := make(chan error, 1)
	obs := observe.Funcs{JobDone: func(ev observe.JobDone) {
		b, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
		if err == nil && !bytes.Contains(b, []byte(`"kind":"finish","finish":{"id":"`+ev.ID+`"`)) {
			err = fmt.Errorf("no finish record for %s in the journal as job_done is delivered:\n%s", ev.ID, b)
		}
		checked <- err
	}}
	reg := telemetry.NewRegistry()
	d, addr := startDispatcher(t, jobs.Config{JournalDir: dir, PoolConfig: dist.PoolConfig{Observer: obs, Metrics: reg}})
	startWorkers(t, addr, 1, 100)
	awaitWorkers(t, d, 1)

	info, err := d.Submit(manyTasks("acme", 32, 10))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got, err := d.Wait(info.ID, 10*time.Second); err != nil || got.State != jobs.StateDone {
		t.Fatalf("Wait: %+v, %v; want done", got, err)
	}
	select {
	case err := <-checked:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job_done never delivered")
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	var records, writes int
	for _, line := range strings.Split(b.String(), "\n") {
		fmt.Sscanf(line, "pnsched_jobs_journal_records_total %d", &records)
		fmt.Sscanf(line, "pnsched_jobs_journal_writes_total %d", &writes)
	}
	// submit, admit, 32 tasks, finish
	if records != 35 || writes < 1 || writes >= records {
		t.Errorf("%d records in %d writes, want 35 in fewer", records, writes)
	}
}

// TestObserverMaySubmitFromJobDone submits a follow-up job from inside
// OnJobDone. No lock is held across an observer call, so the submission
// goes through and both jobs run to completion.
func TestObserverMaySubmitFromJobDone(t *testing.T) {
	var d *jobs.Dispatcher
	next := make(chan string, 1)
	var once sync.Once
	obs := observe.Funcs{JobDone: func(observe.JobDone) {
		once.Do(func() {
			info, err := d.Submit(oneTask("acme", 10))
			if err != nil {
				t.Errorf("Submit from OnJobDone: %v", err)
			}
			next <- info.ID
		})
	}}
	d, addr := startDispatcher(t, jobs.Config{PoolConfig: dist.PoolConfig{Observer: obs}})
	startWorkers(t, addr, 1, 100)

	first, err := d.Submit(oneTask("acme", 10))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var ids []string
	select {
	case id := <-next:
		ids = []string{first.ID, id}
	case <-time.After(10 * time.Second):
		t.Fatal("OnJobDone's Submit never returned")
	}
	for _, id := range ids {
		if info, err := d.Wait(id, 10*time.Second); err != nil || info.State != jobs.StateDone {
			t.Errorf("job %s: %+v, %v; want done", id, info, err)
		}
	}
}

// TestFairShareOverWire runs two tenants with 3:1 weights through real
// workers under worker churn and checks the admission order respects
// the weights end to end. All jobs are submitted before the first
// worker connects, so the stride walk — and thus the observed start
// order — is fully deterministic; churn only perturbs execution, never
// admission.
func TestFairShareOverWire(t *testing.T) {
	var mu sync.Mutex
	var started []string
	obs := observe.Funcs{
		JobStarted: func(e observe.JobStarted) {
			mu.Lock()
			started = append(started, e.ID)
			mu.Unlock()
		},
	}

	d, addr := startDispatcher(t, jobs.Config{
		Policy:     jobs.PolicyFair,
		Weights:    map[string]float64{"gold": 3, "free": 1},
		PoolConfig: dist.PoolConfig{Observer: obs},
	})

	// Interleaved submissions, equal work everywhere, no workers yet.
	tenants := []string{"gold", "free", "gold", "free", "gold", "free", "gold", "gold"}
	byID := map[string]string{}
	var ids []string
	for i, tenant := range tenants {
		info, err := d.Submit(manyTasks(tenant, 4, 30))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		byID[info.ID] = tenant
		ids = append(ids, info.ID)
	}

	startWorkers(t, addr, 2, 200)
	// Churn: one extra worker joins mid-flight and leaves again; its
	// in-flight tasks are reissued against each job's retry budget.
	wctx, wcancel := context.WithCancel(context.Background())
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		_ = dist.RunWorker(wctx, addr, dist.WorkerConfig{Name: "churn", Rate: 150, TimeScale: 2e-4})
	}()
	time.Sleep(20 * time.Millisecond)
	wcancel()
	<-churnDone

	for _, id := range ids {
		if final, err := d.Wait(id, 30*time.Second); err != nil || final.State != jobs.StateDone {
			t.Fatalf("Wait(%s): %+v, %v", id, final, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	var order []string
	for _, id := range started {
		order = append(order, byID[id])
	}
	// The stride walk with weights 3:1, equal jobs, submission order
	// g,f,g,f,g,f,g,g: g1 admits on submit; free's first job is lifted
	// level and wins its tie by submission order; thereafter gold takes
	// three admissions for each free one.
	want := []string{"gold", "free", "gold", "gold", "gold", "free", "gold", "free"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("start order %v, want %v", order, want)
	}
}
