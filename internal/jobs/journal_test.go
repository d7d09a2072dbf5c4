package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pnsched/internal/dist"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/telemetry"
)

func journalFactory(json.RawMessage) (sched.Batch, error) {
	return sched.MX{}, nil
}

func journalConfig(dir string) Config {
	return Config{
		NewScheduler: journalFactory,
		Policy:       PolicyFair,
		JournalDir:   dir,
	}
}

func mustSubmit(t *testing.T, d *Dispatcher, tenant string, sizes ...float64) dist.JobInfo {
	t.Helper()
	var ws []dist.WireTask
	for i, s := range sizes {
		ws = append(ws, dist.WireTask{ID: int32(i), Size: s})
	}
	info, err := d.Submit(dist.JobSubmission{Tenant: tenant, Tasks: ws})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return info
}

// TestJournalRecoverRestart is the core replay contract: after a
// restart on the same journal, terminal jobs stay queryable as they
// finished, the job that was running is re-queued with one retry
// spent (and re-admitted, its leases being gone either way), queued
// jobs re-enter in submission order, and job IDs keep counting from
// where they stopped.
func TestJournalRecoverRestart(t *testing.T) {
	dir := t.TempDir()

	d1, err := New(journalConfig(dir))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a1 := mustSubmit(t, d1, "a", 100, 50) // admitted: running
	a2 := mustSubmit(t, d1, "a", 100)     // queued
	b1 := mustSubmit(t, d1, "b", 100)     // queued, then cancelled
	if _, err := d1.Cancel(b1.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	d1.Close() // the journal survives; Close takes no extra checkpoint

	d2, err := New(journalConfig(dir))
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	defer d2.Close()

	cancelled, err := d2.Status(b1.ID)
	if err != nil {
		t.Fatalf("pre-restart terminal job unknown after restart: %v", err)
	}
	if cancelled.State != StateCancelled {
		t.Errorf("terminal job %s replayed as %s, want cancelled", b1.ID, cancelled.State)
	}

	running, err := d2.Status(a1.ID)
	if err != nil {
		t.Fatalf("Status(%s): %v", a1.ID, err)
	}
	// Re-queued with one retry spent, then re-admitted (it is still
	// the stride pick).
	if running.State != StateRunning || running.Retries != 1 {
		t.Errorf("interrupted job %s: state %s retries %d, want running with 1 retry",
			a1.ID, running.State, running.Retries)
	}
	queued, err := d2.Status(a2.ID)
	if err != nil {
		t.Fatalf("Status(%s): %v", a2.ID, err)
	}
	if queued.State != StateQueued || queued.Position != 1 {
		t.Errorf("queued job %s: state %s position %d, want queued at 1",
			a2.ID, queued.State, queued.Position)
	}

	next := mustSubmit(t, d2, "a", 10)
	if next.ID != "job-0004" {
		t.Errorf("first post-restart submission got ID %s, want job-0004 (seq must continue)", next.ID)
	}
}

// TestJournalRestartExhaustsBudget: the restart's retry spend obeys
// the budget — a running job with no retries left fails at recovery
// instead of re-queueing, and it fails through the same finish
// transition a lost worker would have taken it through: its unscheduled
// tasks are dropped and the finished-jobs counter sees it.
func TestJournalRestartExhaustsBudget(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	cfg.Metrics = telemetry.NewRegistry()
	d1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	zero := 0
	info, err := d1.Submit(dist.JobSubmission{
		Tenant:      "a",
		RetryBudget: &zero,
		Tasks:       []dist.WireTask{{ID: 0, Size: 100}},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	d1.Close()

	cfg.Metrics = telemetry.NewRegistry()
	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	defer d2.Close()
	got, err := d2.Status(info.ID)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if got.State != StateFailed {
		t.Errorf("zero-budget interrupted job in state %s, want failed", got.State)
	}
	d2.mu.Lock()
	queued := d2.jobsByID[info.ID].queue.Len()
	d2.mu.Unlock()
	if queued != 0 {
		t.Errorf("job failed by recovery still holds %d unscheduled tasks, want 0", queued)
	}
	if n := d2.met.finished[StateFailed].Value(); n != 1 {
		t.Errorf(`pnsched_jobs_finished_total{state="failed"} = %v after recovery failed one job, want 1`, n)
	}
}

// TestJournalPreservesFairOrder: the per-tenant virtual time survives
// a restart, so the stride walk after recovery is exactly the walk a
// never-restarted dispatcher would produce.
func TestJournalPreservesFairOrder(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	cfg.Weights = map[string]float64{"a": 3, "b": 1}

	d1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	labels := map[string]string{}
	for i, tenant := range []string{"a", "b", "a", "a", "b", "a"} {
		info := mustSubmit(t, d1, tenant, 100)
		labels[info.ID] = fmt.Sprintf("%s%d", tenant, i)
	}
	d1.Close()

	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	defer d2.Close()

	var order []string
	for range labels {
		id := ""
		for _, info := range d2.Queue() {
			if info.State == StateRunning {
				id = info.ID
			}
		}
		if id == "" {
			t.Fatalf("no running job after %v", order)
		}
		order = append(order, labels[id])
		d2.MarkServedForTest(id)
		if _, err := d2.Cancel(id); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
	}
	// Identical to TestAdmissionFairShare's canonical 3:1 walk.
	want := "[a0 b1 a2 a3 a5 b4]"
	if fmt.Sprint(order) != want {
		t.Errorf("post-restart stride order %v, want %s", order, want)
	}
}

// TestJournalTruncatedTail: a torn final line — the crash happened
// mid-append — is dropped; everything before it replays.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	d1, err := New(journalConfig(dir))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a1 := mustSubmit(t, d1, "a", 100)
	a2 := mustSubmit(t, d1, "a", 100)
	d1.Close()

	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := f.WriteString(`{"lsn":9999,"kind":"fin`); err != nil {
		t.Fatalf("append torn line: %v", err)
	}
	f.Close()

	d2, err := New(journalConfig(dir))
	if err != nil {
		t.Fatalf("New with torn tail: %v", err)
	}
	defer d2.Close()
	for _, id := range []string{a1.ID, a2.ID} {
		if _, err := d2.Status(id); err != nil {
			t.Errorf("job %s lost to a torn tail: %v", id, err)
		}
	}
}

// TestJournalCorruptMiddleFails: corruption before the final line is
// not a torn append and must refuse to replay rather than silently
// dropping acknowledged state.
func TestJournalCorruptMiddleFails(t *testing.T) {
	dir := t.TempDir()
	d1, err := New(journalConfig(dir))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mustSubmit(t, d1, "a", 100)
	mustSubmit(t, d1, "a", 100)
	d1.Close()

	path := filepath.Join(dir, "journal.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := bytes.SplitN(b, []byte("\n"), 2)
	corrupted := append([]byte("{corrupt}\n"), lines[1]...)
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatalf("write corrupted journal: %v", err)
	}
	if d2, err := New(journalConfig(dir)); err == nil {
		d2.Close()
		t.Fatal("New replayed a journal with mid-file corruption")
	}
}

// TestJournalSnapshotTruncates: with a cadence of one, every record
// immediately folds into the snapshot and the journal stays empty —
// and the state still survives a restart purely via the snapshot.
func TestJournalSnapshotTruncates(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	cfg.SnapshotEvery = 1

	d1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a1 := mustSubmit(t, d1, "a", 100)
	if _, err := d1.Cancel(a1.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	d1.Close()

	if b, err := os.ReadFile(filepath.Join(dir, "journal.jsonl")); err != nil {
		t.Fatalf("read journal: %v", err)
	} else if len(bytes.TrimSpace(b)) != 0 {
		t.Errorf("journal not truncated by per-record snapshots: %q", b)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	defer d2.Close()
	got, err := d2.Status(a1.ID)
	if err != nil {
		t.Fatalf("Status after snapshot-only restart: %v", err)
	}
	if got.State != StateCancelled {
		t.Errorf("job %s in state %s, want cancelled", a1.ID, got.State)
	}
}

// FuzzJournalRecord fuzzes the journal record decoder and the code that
// applies what it accepts, mirroring dist's FuzzWireMessage. The
// invariants, whatever the input:
//
//   - decodeJournalRecord never panics — malformed JSON, unknown
//     kinds, missing or doubled payloads all surface as errors;
//   - anything accepted survives an encode→decode→encode round trip
//     byte-identically (the record really is well-formed);
//   - anything accepted, applied to a dispatcher holding one known
//     running job, is refused with an error or applied — never a panic,
//     never a negative counter.
func FuzzJournalRecord(f *testing.F) {
	seeds := []string{
		`{"lsn":1,"kind":"submit","submit":{"job":{"id":"job-0001","seq":1,"tenant":"gold","spec":{"name":"PN"},"scheduler":"PN","state":"queued","total":2,"retry_budget":64,"submitted_at":1754560000000000000,"tasks":[{"id":0,"size":420.5},{"id":1,"size":33}]},"served":0}}`,
		`{"lsn":2,"kind":"admit","admit":{"id":"job-0001","at":1754560001000000000,"charge":453.5,"served":453.5}}`,
		`{"lsn":3,"kind":"task","task":{"id":"job-0001","task":0,"worker":"node7","elapsed":4.81,"work":420.5}}`,
		`{"lsn":4,"kind":"retry","retry":{"id":"job-0001","tasks":1}}`,
		`{"lsn":5,"kind":"finish","finish":{"id":"job-0001","state":"done","at":1754560002000000000,"served":453.5}}`,
		`{"lsn":6,"kind":"finish","finish":{"id":"job-0002","state":"failed","error":"retry budget exhausted","at":1754560003000000000}}`,
		`{"lsn":4,"kind":"retry","retry":{"id":"job-0001","tasks":-3}}`,
		`{"lsn":5,"kind":"finish","finish":{"id":"job-0001","state":"running","at":1}}`,
		`{"lsn":6,"kind":"submit","submit":{"job":{"id":"job-0002","seq":2,"tenant":"gold","state":"queued","total":-1,"retry_budget":1,"submitted_at":1}}}`,
		`{"lsn":6,"kind":"submit","submit":{"job":{"id":"job-0002","seq":2,"tenant":"gold","state":"queued","total":9223372036854775807,"retry_budget":1,"submitted_at":1}}}`,
		`{"lsn":7,"kind":"retry"}`,
		`{"lsn":8,"kind":"retry","retry":{"id":"x"},"task":{"id":"x"}}`,
		`{"lsn":9,"kind":"mystery","retry":{"id":"x"}}`,
		`{"kind":"retry","retry":{"id":"x"}}`,
		`{"lsn":1}`,
		`{`,
		`null`,
		`[]`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := decodeJournalRecord(line)
		if err != nil {
			return
		}
		enc, err := encodeJournalRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not encode: %v", err)
		}
		rec2, err := decodeJournalRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record no longer decodes: %v\n%s", err, enc)
		}
		enc2, err := encodeJournalRecord(rec2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not byte-identical:\n%s\n%s", enc, enc2)
		}
		// No DeepEqual between rec and rec2: json's case-insensitive
		// field matching lets inputs like {"tAsks":[]} decode into an
		// empty-but-non-nil slice that canonicalizes to nil through the
		// omitempty round trip. The byte identity above is the durable
		// invariant; spot-check the envelope survived too.
		if rec2.LSN != rec.LSN || rec2.Kind != rec.Kind {
			t.Fatalf("round trip changed the envelope: %+v vs %+v", rec, rec2)
		}

		d, err := New(Config{NewScheduler: journalFactory, Policy: PolicyFair})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer d.Close()
		mustSubmit(t, d, "gold", 420.5, 33) // job-0001, admitted at once
		d.mu.Lock()
		defer d.mu.Unlock()
		if err := d.replayRecord(rec, map[*job][]task.ID{}); err != nil {
			return
		}
		for name, n := range map[string]int{
			"tasks submitted": d.tasksSubmitted, "tasks done": d.tasksDone, "reissued": d.reissued,
			"done": d.doneCount, "failed": d.failedCount, "cancelled": d.cancelCount,
		} {
			if n < 0 {
				t.Fatalf("applied record left the %s counter at %d\n%s", name, n, enc)
			}
		}
		for _, j := range d.order {
			if j.total < 0 || j.completed < 0 || j.retries < 0 {
				t.Fatalf("applied record left job %s with total %d, completed %d, retries %d\n%s",
					j.id, j.total, j.completed, j.retries, enc)
			}
		}
	})
}

// TestHealthReportsLostDurability: a journal write failure is not only
// a log line. The dispatcher keeps serving, but Health — which the root
// package hands to /healthz — reports the failure from then on.
func TestHealthReportsLostDurability(t *testing.T) {
	d, err := New(journalConfig(t.TempDir()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	admin := httptest.NewServer(telemetry.AdminMux(telemetry.NewRegistry(), d.Health))
	defer admin.Close()
	healthz := func() (int, string) {
		resp, err := http.Get(admin.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	mustSubmit(t, d, "a", 100)
	if code, body := healthz(); code != http.StatusOK {
		t.Fatalf("/healthz with a working journal: %d %q, want 200", code, body)
	}
	d.BreakJournalForTest()
	mustSubmit(t, d, "a", 100) // still accepted: degraded, not down
	code, body := healthz()
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "no longer durable") {
		t.Errorf("/healthz after a failed journal write: %d %q, want 503 naming the lost durability", code, body)
	}
}
