package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/observe"
	"pnsched/internal/task"
	"pnsched/internal/telemetry"
)

// The tests below hold the journal's one write rule: every append
// stages, and releasing the pool lock writes what the hold staged in
// one write, so nothing a hold staged outlives it.

// journalCounts reads the records and writes the journal has counted.
func journalCounts(reg *telemetry.Registry) (records, writes int) {
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		fmt.Sscanf(line, "pnsched_jobs_journal_records_total %d", &records)
		fmt.Sscanf(line, "pnsched_jobs_journal_writes_total %d", &writes)
	}
	return records, writes
}

// journalKinds lists the kinds of the records in dir's journal file.
func journalKinds(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rec, err := decodeJournalRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, rec.Kind)
	}
	return kinds
}

// settled checks, in a fresh hold of the lock, that the hold before it
// left nothing staged and that the journal file ends at the
// dispatcher's LSN — with its last record, or, right after a snapshot,
// with the snapshot that holds it.
func settled(t *testing.T, d *Dispatcher, after string) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	jr := d.jour
	if jr.staged != 0 || jr.pending.Len() != 0 {
		t.Errorf("after %s: %d records (%d bytes) outlived their hold", after, jr.staged, jr.pending.Len())
	}
	raw, err := os.ReadFile(filepath.Join(jr.dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var end uint64
	if lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n")); len(lines[len(lines)-1]) > 0 {
		rec, err := decodeJournalRecord(lines[len(lines)-1])
		if err != nil {
			t.Fatal(err)
		}
		end = rec.LSN
	} else {
		var snap JournalSnapshot
		b, err := os.ReadFile(filepath.Join(jr.dir, snapshotFile))
		if err == nil {
			err = json.Unmarshal(b, &snap)
		}
		if err != nil {
			t.Fatal(err)
		}
		end = snap.LSN
	}
	if end != d.durable.LSN {
		t.Errorf("after %s: the journal ends at lsn %d, the dispatcher is at %d", after, end, d.durable.LSN)
	}
}

// TestCancelWritesOnce: cancelling a running job with a queued
// successor writes the finish record and the successor's admit record
// with one write, and a restart leaves the journal settled too.
func TestCancelWritesOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	running := mustSubmit(t, d, "a", 100)
	settled(t, d, "Submit")
	next := mustSubmit(t, d, "a", 100)
	if next.State != StateQueued {
		t.Fatalf("job %s is %s, want it queued behind %s", next.ID, next.State, running.ID)
	}
	records, writes := journalCounts(reg)
	if _, err := d.Cancel(running.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	settled(t, d, "Cancel")
	r, w := journalCounts(reg)
	if r-records != 2 || w-writes != 1 {
		t.Errorf("Cancel wrote %d records in %d writes, want 2 in 1", r-records, w-writes)
	}
	kinds := journalKinds(t, dir)
	if got, want := kinds[len(kinds)-2:], []string{JournalKindFinish, JournalKindAdmit}; !slices.Equal(got, want) {
		t.Errorf("Cancel's records are %v, want %v", got, want)
	}
	d.Close()

	d, err = New(cfg)
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	defer d.Close()
	settled(t, d, "a restart")
}

// TestLeaveWritesOnce: a worker that reports one task done and leaves
// with the rest of a zero-budget job spends the budget, fails the job
// and admits the queued one — retry, finish and admit records in one
// write. The done report's record is written in its own hold.
func TestLeaveWritesOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)

	zero := 0
	sub := dist.JobSubmission{Tenant: "a", RetryBudget: &zero}
	for i := range 4 {
		sub.Tasks = append(sub.Tasks, task.Task{ID: task.ID(i), Size: 100})
	}
	doomed, err := d.Submit(sub)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	next := mustSubmit(t, d, "a", 100)

	// A hand-rolled worker: hello, take all four tasks, report one.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	enc := json.NewEncoder(conn)
	if err := enc.Encode(map[string]any{"type": "hello", "name": "flaky", "rate": 100}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	br := bufio.NewReader(conn)
	var held []task.Task
	for len(held) < len(sub.Tasks) {
		line, err := dist.ReadFrame(br)
		if err != nil {
			t.Fatalf("read assignment: %v", err)
		}
		m, _, err := dist.DecodeWireMessage(line)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil && m.Type == dist.MsgAssign {
			held = append(held, m.Tasks...)
		}
	}
	if err := enc.Encode(map[string]any{"type": "done", "task": held[0].ID, "elapsed": 0.1}); err != nil {
		t.Fatalf("done: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if info, _ := d.Status(doomed.ID); info.Completed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the done report was never applied")
		}
	}
	settled(t, d, "a done batch")

	records, writes := journalCounts(reg)
	conn.Close()
	if info, err := d.Wait(doomed.ID, 10*time.Second); err != nil || info.State != StateFailed {
		t.Fatalf("Wait: %+v, %v; want failed", info, err)
	}
	settled(t, d, "a leave")
	r, w := journalCounts(reg)
	if r-records != 3 || w-writes != 1 {
		t.Errorf("the leave wrote %d records in %d writes, want 3 in 1", r-records, w-writes)
	}
	kinds := journalKinds(t, dir)
	if got, want := kinds[len(kinds)-3:], []string{JournalKindRetry, JournalKindFinish, JournalKindAdmit}; !slices.Equal(got, want) {
		t.Errorf("the leave's records are %v, want %v", got, want)
	}
	if info, _ := d.Status(next.ID); info.State != StateRunning {
		t.Errorf("job %s is %s after the leave, want running", next.ID, info.State)
	}
}

// TestFailedRecoveryLeavesNothing: a New whose recovery admits a job
// and then cannot write its snapshot fails, and leaves no runner behind
// and no job event delivered.
func TestFailedRecoveryLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mustSubmit(t, d, "a", 100) // running, so re-queued and admitted again
	mustSubmit(t, d, "a", 100) // queued
	d.Close()
	// The snapshot is written to a temporary file first; a directory in
	// its place makes that fail, and one that is not empty stays.
	if err := os.MkdirAll(filepath.Join(dir, snapshotFile+".tmp", "x"), 0o755); err != nil {
		t.Fatal(err)
	}

	var events atomic.Int32
	count := func() { events.Add(1) }
	cfg.Observer = observe.Funcs{
		JobQueued:  func(observe.JobQueued) { count() },
		JobStarted: func(observe.JobStarted) { count() },
		JobDone:    func(observe.JobDone) { count() },
	}
	before := runtime.NumGoroutine()
	for range 5 {
		if d, err := New(cfg); err == nil {
			d.Close()
			t.Fatal("New recovered though its snapshot cannot be written")
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before five failed New calls, %d after", before, runtime.NumGoroutine())
		}
	}
	if n := events.Load(); n != 0 {
		t.Errorf("failed New calls delivered %d job events, want none", n)
	}
}
