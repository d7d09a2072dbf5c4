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
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/telemetry"
	"pnsched/internal/units"
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
	var ws []task.Task
	for i, s := range sizes {
		ws = append(ws, task.Task{ID: task.ID(i), Size: units.MFlops(s)})
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
		Tasks:       []task.Task{{ID: 0, Size: 100}},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	d1.Close()

	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
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
	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), "\n"+`pnsched_jobs_finished_total{state="failed"} 1`+"\n") {
		t.Errorf("pnsched_jobs_finished_total{state=\"failed\"} is not 1 after recovery failed one job:\n%s", b.String())
	}
}

// TestSubmitWritesOnce: a journaled Submit that admits its job at once
// writes the submit and admit records, in that order, with one write.
func TestSubmitWritesOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	info := mustSubmit(t, d, "a", 1, 2)
	if info.State != StateRunning {
		t.Fatalf("job %s is %s, want it admitted at once", info.ID, info.State)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	var records, writes int
	for _, line := range strings.Split(b.String(), "\n") {
		fmt.Sscanf(line, "pnsched_jobs_journal_records_total %d", &records)
		fmt.Sscanf(line, "pnsched_jobs_journal_writes_total %d", &writes)
	}
	if records != 2 || writes != 1 {
		t.Errorf("Submit wrote %d records in %d writes, want 2 in 1", records, writes)
	}
	raw, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		rec, err := decodeJournalRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, rec.Kind)
	}
	if want := []string{JournalKindSubmit, JournalKindAdmit}; !slices.Equal(kinds, want) {
		t.Errorf("journal holds %v, want %v", kinds, want)
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

// TestSnapshotCadenceIsAmortised: at the default cadence a snapshot is
// paid for by the appends before the next one, however large the state
// grows. A long grace keeps all 2,000 finished jobs, so every snapshot
// is larger than the last; still the snapshots write at most the bytes
// the journal appended plus the newest snapshot, and the tail left at
// Close is within the floor or within the snapshot it follows.
func TestSnapshotCadenceIsAmortised(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	cfg.Metrics = telemetry.NewRegistry()
	d, err := newRetaining(cfg, DefaultRetain, time.Hour)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for range 2000 {
		info := mustSubmit(t, d, "a", 100, 50)
		if _, err := d.Cancel(info.ID); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
	}
	appended, written := d.met.journalBytes.Value(), d.met.snapshotBytes.Value()
	snapshots := d.met.journalSnapshots.Value()
	d.Close()

	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	tail, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if snapshots < 3 {
		t.Fatalf("%v snapshots in 6,000 records; the test needs the cadence to fire", snapshots)
	}
	if written > appended+float64(len(snap)) {
		t.Errorf("%v snapshots wrote %v bytes for %v bytes appended; want at most appended + the last snapshot (%d)",
			snapshots, written, appended, len(snap))
	}
	if records := bytes.Count(tail, []byte("\n")); records > DefaultSnapshotEvery && len(tail) > len(snap) {
		t.Errorf("tail of %d records, %d bytes left behind a %d-byte snapshot; want ≤ %d records or ≤ the snapshot",
			records, len(tail), len(snap), DefaultSnapshotEvery)
	}
}

// TestRetentionAcrossRestart: jobs that were terminal before a restart
// join the rebuilt retention queue in the order they finished, so they
// are evicted after it like any other — oldest finisher first, not
// oldest submission, and none left behind for ever.
func TestRetentionAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	d1, err := newRetaining(cfg, DefaultRetain, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a := mustSubmit(t, d1, "a", 100) // running
	b := mustSubmit(t, d1, "a", 100) // queued
	c := mustSubmit(t, d1, "a", 100) // queued
	// They finish in the reverse of submission order.
	for _, id := range []string{c.ID, b.ID, a.ID} {
		if _, err := d1.Cancel(id); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
		time.Sleep(time.Millisecond) // distinct finish stamps
	}
	d1.Close()

	d2, err := newRetaining(cfg, 2, 0)
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	defer d2.Close()
	retained := func(want map[string]bool) {
		t.Helper()
		for id, kept := range want {
			if _, err := d2.Status(id); (err == nil) != kept {
				t.Errorf("job %s retained = %v, want %v", id, err == nil, kept)
			}
		}
	}
	retained(map[string]bool{c.ID: false, b.ID: true, a.ID: true}) // recovery trims to the cap
	next := mustSubmit(t, d2, "a", 100)
	if _, err := d2.Cancel(next.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	retained(map[string]bool{b.ID: false, a.ID: true, next.ID: true})
}

// The jobs no transition could have produced, as a snapshot file and as
// submit records: the decoders accept them — they are well-formed — and
// addJobLocked / replayRecord must refuse them. FuzzJournalRecord and
// FuzzJournalSnapshot are seeded with the same bytes.
var (
	impossibleSnapshots = map[string]string{
		"unknown state":        `{"lsn":1,"start":1,"next_seq":1,"jobs":[{"id":"job-0001","seq":1,"tenant":"a","state":"paused","total":1,"retry_budget":1,"submitted_at":1}]}`,
		"no state":             `{"lsn":1,"start":1,"next_seq":1,"jobs":[{"id":"job-0001","seq":1,"tenant":"a","state":"","total":1,"retry_budget":1,"submitted_at":1}]}`,
		"completed over total": `{"lsn":1,"start":1,"next_seq":1,"jobs":[{"id":"job-0001","seq":1,"tenant":"a","state":"running","total":1,"completed":2,"retry_budget":1,"submitted_at":1,"started_at":2}]}`,
		"negative counter":     `{"lsn":1,"start":1,"next_seq":1,"tasks_done":-4}`,
		"invalid task":         `{"lsn":1,"start":1,"next_seq":1,"jobs":[{"id":"job-0001","seq":1,"tenant":"a","state":"queued","total":2,"retry_budget":1,"submitted_at":1,"tasks":[{"id":0,"size":10},{"id":1,"size":-5}]}]}`,
	}
	impossibleSubmits = map[string]string{
		"unknown state":        `{"lsn":1,"kind":"submit","submit":{"job":{"id":"job-0001","seq":1,"tenant":"a","state":"paused","total":1,"retry_budget":1,"submitted_at":1,"tasks":[{"id":0,"size":1}]}}}`,
		"submitted running":    `{"lsn":1,"kind":"submit","submit":{"job":{"id":"job-0001","seq":1,"tenant":"a","state":"running","total":1,"retry_budget":1,"submitted_at":1,"tasks":[{"id":0,"size":1}]}}}`,
		"submitted done":       `{"lsn":1,"kind":"submit","submit":{"job":{"id":"job-0001","seq":1,"tenant":"a","state":"done","total":1,"retry_budget":1,"submitted_at":1,"tasks":[{"id":0,"size":1}]}}}`,
		"submitted with work":  `{"lsn":1,"kind":"submit","submit":{"job":{"id":"job-0001","seq":1,"tenant":"a","state":"queued","total":1,"completed":1,"retry_budget":1,"submitted_at":1,"tasks":[{"id":0,"size":1}]}}}`,
		"submitted with spend": `{"lsn":1,"kind":"submit","submit":{"job":{"id":"job-0001","seq":1,"tenant":"a","state":"queued","total":1,"retries":1,"retry_budget":1,"submitted_at":1,"tasks":[{"id":0,"size":1}]}}}`,
		"repeated task id":     `{"lsn":1,"kind":"submit","submit":{"job":{"id":"job-0001","seq":1,"tenant":"a","state":"queued","total":2,"retry_budget":1,"submitted_at":1,"tasks":[{"id":1,"size":5},{"id":1,"size":5}]}}}`,
	}
)

// replayFresh replays a snapshot and tail into a new journal-less
// dispatcher, closed when the test ends.
func replayFresh(t testing.TB, snap *JournalSnapshot, tail []*JournalRecord) (*Dispatcher, error) {
	t.Helper()
	d, err := New(Config{NewScheduler: journalFactory, Policy: PolicyFair})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	d.mu.Lock()
	defer d.mu.Unlock()
	return d, d.replayLocked(snap, tail)
}

// TestReplayRefusesImpossibleJobs: state read from disk is checked. A
// job in a state that is none of the five would be neither pending,
// active nor terminal — never admitted, never trimmed, reported for
// ever — so recovery refuses it, and the other impossible records with
// it, instead of installing them, naming the job. A task Submit would
// refuse is one of them: installed, a bad task makes every worker it
// reaches hang up until the job's retry budget is spent.
func TestReplayRefusesImpossibleJobs(t *testing.T) {
	replay := func(t *testing.T, snap *JournalSnapshot, tail []*JournalRecord) error {
		_, err := replayFresh(t, snap, tail)
		return err
	}
	refused := func(t *testing.T, input string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("replayed %s", input)
		} else if strings.Contains(input, "job-0001") && !strings.Contains(err.Error(), "job-0001") {
			t.Errorf("refused with %q, which does not name job-0001", err)
		}
	}
	for name, file := range impossibleSnapshots {
		t.Run("snapshot/"+name, func(t *testing.T) {
			var snap JournalSnapshot
			if err := json.Unmarshal([]byte(file), &snap); err != nil {
				t.Fatalf("the snapshot is meant to decode: %v", err)
			}
			refused(t, file, replay(t, &snap, nil))
		})
	}
	for name, line := range impossibleSubmits {
		t.Run("submit/"+name, func(t *testing.T) {
			rec, err := decodeJournalRecord([]byte(line))
			if err != nil {
				t.Fatalf("the record is meant to decode: %v", err)
			}
			refused(t, line, replay(t, nil, []*JournalRecord{rec}))
		})
	}
	// What recovery does read every day still replays.
	golden, err := os.ReadFile(goldenPath("journal_snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	var snap JournalSnapshot
	if err := json.Unmarshal(golden, &snap); err != nil {
		t.Fatal(err)
	}
	if err := replay(t, &snap, nil); err != nil {
		t.Errorf("the golden snapshot no longer replays: %v", err)
	}
}

// TestRecoveryRefusesRepeatedTaskID: New on a journal dir whose submit
// record lists task 1 twice, then a task record for 1, fails naming the
// job. Installed, the task record would retire both copies, so the job
// could never complete, and under MaxActive 1 it would wedge the queue.
func TestRecoveryRefusesRepeatedTaskID(t *testing.T) {
	dir := t.TempDir()
	body := impossibleSubmits["repeated task id"] + "\n" +
		`{"lsn":2,"kind":"task","task":{"id":"job-0001","task":1,"worker":"w","elapsed":1,"work":5}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := New(journalConfig(dir))
	if err == nil {
		d.Close()
		t.Fatal("recovered a job that repeats a task ID")
	}
	if !strings.Contains(err.Error(), "job-0001") {
		t.Errorf("recovery failed with %q, which does not name job-0001", err)
	}
}

// fillDistinct sets every field of the struct v to a non-zero value no
// other field holds, skipping the named ones. A field of a kind it does
// not know fails the test: whoever adds one decides here how it is
// filled, and the round trip below then covers it.
func fillDistinct(t *testing.T, v reflect.Value, n *int, skip ...string) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		if slices.Contains(skip, name) {
			continue
		}
		*n++
		switch {
		case f.CanInt():
			f.SetInt(int64(*n))
		case f.CanUint():
			f.SetUint(uint64(*n))
		case f.CanFloat():
			f.SetFloat(float64(*n) + 0.5)
		case f.Kind() == reflect.String:
			f.SetString(fmt.Sprintf("%s-%d", name, *n))
		case f.Type() == reflect.TypeFor[json.RawMessage]():
			f.SetBytes(fmt.Appendf(nil, `{"n":%d}`, *n))
		case f.Type() == reflect.TypeFor[map[string]float64]():
			f.Set(reflect.ValueOf(map[string]float64{fmt.Sprintf("%s-%d", name, *n): float64(*n) + 0.5}))
		default:
			t.Fatalf("fillDistinct: field %s has kind %s; teach it", name, f.Type())
		}
	}
}

// TestDurableStateRoundTrips: no durable field can be dropped between
// disk and memory. Every field of JournalJob and of the JournalSnapshot
// header — found by reflection, so a field added later is covered the
// day it is added — goes in through replayLocked / addJobLocked with a
// value of its own and must come back out of snapshotLocked unchanged.
func TestDurableStateRoundTrips(t *testing.T) {
	n := 0
	job := JournalJob{
		Tasks:   []task.Task{{ID: 3, Size: 5.5}, {ID: 9, Size: 2}},
		Workers: []dist.JobWorkerResult{{Name: "node1", Tasks: 2, Work: 7.5}, {Name: "node2", Tasks: 1, Work: 3}},
	}
	fillDistinct(t, reflect.ValueOf(&job).Elem(), &n, "Tasks", "Workers")
	// The two constraints the values are under: a live state, so the
	// remaining tasks are part of the durable form, and no more completed
	// than there are.
	job.State = StateRunning
	job.Total += job.Completed
	want := JournalSnapshot{Jobs: []JournalJob{job}}
	fillDistinct(t, reflect.ValueOf(&want).Elem(), &n, "Jobs")

	var in JournalSnapshot
	if err := json.Unmarshal(mustJSON(want), &in); err != nil { // a private copy: replayLocked owns what it is given
		t.Fatal(err)
	}
	d, err := replayFresh(t, &in, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if j := d.jobsByID[job.ID]; j == nil || j.Tasks != nil {
		t.Errorf("job %s in memory: %+v; want it held, its tasks in the queue only", job.ID, j)
	}
	if got := d.snapshotLocked(); !reflect.DeepEqual(got, &want) {
		t.Errorf("durable state changed on the way through memory\nin  %s\nout %s", mustJSON(want), mustJSON(got))
	}
}

// FuzzJournalRecord fuzzes the journal record decoder and the code that
// applies what it accepts, mirroring dist's FuzzWireMessage. The
// invariants, whatever the input:
//
//   - decodeJournalRecord never panics — malformed JSON, unknown
//     kinds, missing or doubled payloads all surface as errors;
//   - anything accepted encodes, as the journal stages it, to exactly
//     json.Marshal's bytes and a newline;
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
		`{"lsn":3,"kind":"task","task":{"id":"job-0001","task":1,"worker":"<w>","elapsed":1e-7,"work":1e21}}`,
		`{"lsn":3,"kind":"task","task":{"id":"job-0001","task":2,"worker":"wé","elapsed":0,"work":-0}}`,
		`{"lsn":3,"kind":"task","task":{"id":"job-0001","task":3,"worker":"w\"1","elapsed":-0,"work":0}}`,
		`{"lsn":3,"kind":"task","task":{"id":"job-0001","task":4,"worker":"w1","elapsed":1e-7,"work":1e21}}`,
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
	for _, s := range impossibleSubmits {
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
		if want, _ := json.Marshal(rec); !bytes.Equal(enc, append(want, '\n')) {
			t.Fatalf("encoding differs from json.Marshal:\n%s%s", enc, want)
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
			"tasks submitted": d.durable.TasksSubmitted, "tasks done": d.durable.TasksDone, "reissued": d.durable.Reissued,
			"done": d.durable.Done, "failed": d.durable.Failed, "cancelled": d.durable.Cancelled,
		} {
			if n < 0 {
				t.Fatalf("applied record left the %s counter at %d\n%s", name, n, enc)
			}
		}
		for _, j := range d.order {
			if j.Total < 0 || j.Completed < 0 || j.Retries < 0 {
				t.Fatalf("applied record left job %s with total %d, completed %d, retries %d\n%s",
					j.ID, j.Total, j.Completed, j.Retries, enc)
			}
		}
	})
}

// FuzzJournalSnapshot fuzzes the other file recovery reads. Whatever
// snapshot.json holds, once it decodes it is refused with an error or
// applied — never a panic, never a negative counter — and what was
// applied renders to a snapshot that replays again: a dispatcher that
// recovered can always recover from what it writes next. The snapshot
// writer renders it exactly as json.MarshalIndent does, cold and from
// its cache.
func FuzzJournalSnapshot(f *testing.F) {
	golden, err := os.ReadFile(goldenPath("journal_snapshot"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, s := range impossibleSnapshots {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"lsn":3,"start":1,"next_seq":2,"served":{},"jobs":[{"id":"a","seq":5,"state":"done","total":0,"retry_budget":0,"submitted_at":0,"tasks":[{"id":-1,"size":-1}],"workers":[{"name":"z"},{"name":"a"},{"name":"z"}]},{"id":"a","seq":6,"state":"queued"}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"jobs":[null]}`))
	f.Fuzz(func(t *testing.T, file []byte) {
		var snap JournalSnapshot
		if json.Unmarshal(file, &snap) != nil {
			return
		}
		d, err := replayFresh(t, &snap, nil)
		if err != nil {
			return
		}
		d.mu.Lock()
		want, wantErr := json.MarshalIndent(d.snapshotLocked(), "", "\t")
		want = append(want, '\n')
		for _, pass := range []string{"cold", "cached"} {
			got, err := d.encodeSnapshotLocked(nil)
			if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(got, want) {
				d.mu.Unlock()
				t.Fatalf("%s: the snapshot writer disagrees with json.MarshalIndent (%v, %v)\ngot  %swant %s", pass, err, wantErr, got, want)
			}
		}
		d.mu.Unlock()
		rendered := d.DurableStateForTest()
		for name, n := range map[string]int{
			"next_seq": rendered.NextSeq, "next_wire": int(rendered.NextWire),
			"tasks submitted": rendered.TasksSubmitted, "tasks done": rendered.TasksDone,
			"reissued": rendered.Reissued, "batches": rendered.Batches,
			"done": rendered.Done, "failed": rendered.Failed, "cancelled": rendered.Cancelled,
		} {
			if n < 0 {
				t.Fatalf("applied snapshot left the %s counter at %d\n%s", name, n, file)
			}
		}
		for _, j := range rendered.Jobs {
			if j.Total < 0 || j.Completed < 0 || j.Completed > j.Total || j.Retries < 0 {
				t.Fatalf("applied snapshot left job %s with total %d, completed %d, retries %d\n%s",
					j.ID, j.Total, j.Completed, j.Retries, file)
			}
		}
		b, err := json.Marshal(rendered)
		if err != nil {
			t.Fatalf("applied snapshot does not render: %v\n%s", err, file)
		}
		var again JournalSnapshot
		if err := json.Unmarshal(b, &again); err != nil {
			t.Fatalf("rendered snapshot does not decode: %v\n%s", err, b)
		}
		if _, err := replayFresh(t, &again, nil); err != nil {
			t.Fatalf("rendered snapshot does not replay: %v\n%s", err, b)
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
