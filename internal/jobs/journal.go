package jobs

// Durable job state: an append-only JSON-lines journal plus periodic
// snapshots, so a dispatcher restart loses nothing. Every state
// transition the dispatcher commits — submit, admit, task completion
// tally, retry spend, finish (done/failed/cancelled) — is appended as
// one JournalRecord line *before* the transition is acknowledged over
// the wire: records are appended under d.mu, and replies/events are
// only written after the lock is released, so an acknowledged
// transition is always on disk. A snapshot (the full retained queue,
// the per-tenant fair-share ledger, and the lifetime counters) is
// written once the tail has paid for it — at least DefaultSnapshotEvery
// records and as many bytes as the last snapshot, or every
// SnapshotEvery records when that is positive — and truncates the
// replayed history; New replays snapshot+tail on startup. A terminal
// job never changes, so its part of the snapshot is encoded once and
// copied into every later one. See docs/job-journal.md for the record
// grammar and the recovery rules.
//
// The structs below are also the dispatcher's live state (see the
// package comment): a job is held as its JournalJob, the counters as a
// JournalSnapshot, and a record — carrying post-operation absolutes —
// is the only vocabulary of change. A live transition applies its
// record with the kind's apply…Locked function below and appends it
// when a journal is open; replay calls the same function, so recovered
// state has no second declaration or second arithmetic to disagree with.
//
// Writing under d.mu is deliberate: the journal is a plain os.File
// write of already-encoded lines (no connection I/O, no channel sends),
// and doing it inside the critical section is what makes "journaled
// before acknowledged" atomic with the transition itself. One rule
// says when: every append stages its record, and releasing d.mu — the
// pool's lock — writes what the hold staged in one write before the
// mutex is released (CommitLocked). Durability is against process
// death — records reach the kernel before the lock that applied them is
// released; only snapshots fsync.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
	"unicode"

	"pnsched/internal/dist"
	"pnsched/internal/task"
)

// Journal record kinds, one per dispatcher state transition.
const (
	JournalKindSubmit = "submit"
	JournalKindAdmit  = "admit"
	JournalKindTask   = "task"
	JournalKindRetry  = "retry"
	JournalKindFinish = "finish"
)

// Journal file names inside Config.JournalDir.
const (
	journalFile  = "journal.jsonl"
	snapshotFile = "snapshot.json"
)

// JournalRecord is one journal line: an LSN (log sequence number,
// strictly increasing across the journal's whole life, never reset by
// truncation), the transition kind, and exactly one payload matching
// the kind.
type JournalRecord struct {
	LSN    uint64         `json:"lsn"`
	Kind   string         `json:"kind"`
	Submit *JournalSubmit `json:"submit,omitempty"`
	Admit  *JournalAdmit  `json:"admit,omitempty"`
	Task   *JournalTask   `json:"task,omitempty"`
	Retry  *JournalRetry  `json:"retry,omitempty"`
	Finish *JournalFinish `json:"finish,omitempty"`
}

// JournalSubmit records one accepted submission: the full job record
// (including every task) and, under the fair policy, the tenant's
// ledger after the no-hoarding lift.
type JournalSubmit struct {
	Job    JournalJob `json:"job"`
	Served *float64   `json:"served,omitempty"`
}

// JournalAdmit records one admission: the charge against the tenant's
// fair-share ledger (the job's unscheduled work at admission, in
// MFLOPs) and the ledger value after charging.
type JournalAdmit struct {
	ID     string   `json:"id"`
	At     int64    `json:"at"` // unix nanoseconds
	Charge float64  `json:"charge,omitempty"`
	Served *float64 `json:"served,omitempty"`
}

// JournalTask records one task completion tally: which of the job's
// own task IDs finished, on which worker, its simulated elapsed
// seconds and its size in MFLOPs.
type JournalTask struct {
	ID      string  `json:"id"`
	Task    task.ID `json:"task"`
	Worker  string  `json:"worker"`
	Elapsed float64 `json:"elapsed"`
	Work    float64 `json:"work"`
}

// JournalRetry records a retry spend: Tasks reissues charged against
// the job's budget when a worker was lost.
type JournalRetry struct {
	ID    string `json:"id"`
	Tasks int    `json:"tasks"`
}

// JournalFinish records a job reaching a terminal state; under the
// fair policy Served is the tenant's ledger after the unserved-work
// refund.
type JournalFinish struct {
	ID     string   `json:"id"`
	State  string   `json:"state"`
	Error  string   `json:"error,omitempty"`
	At     int64    `json:"at"` // unix nanoseconds
	Served *float64 `json:"served,omitempty"`
}

// JournalJob is the durable form of one job, as embedded in submit
// records (full task list) and snapshots (unfinished tasks only —
// completed tasks exist only as their tallies). Timestamps are unix
// nanoseconds; zero means "not yet".
type JournalJob struct {
	ID          string                 `json:"id"`
	Seq         int                    `json:"seq"`
	Tenant      string                 `json:"tenant"`
	Priority    int                    `json:"priority,omitempty"`
	Spec        json.RawMessage        `json:"spec,omitempty"`
	Scheduler   string                 `json:"scheduler,omitempty"`
	State       string                 `json:"state"`
	Total       int                    `json:"total"`
	Completed   int                    `json:"completed,omitempty"`
	Retries     int                    `json:"retries,omitempty"`
	Budget      int                    `json:"retry_budget"`
	Error       string                 `json:"error,omitempty"`
	Charge      float64                `json:"charge,omitempty"`      // what admission charged the tenant's ledger
	ServedWork  float64                `json:"served_work,omitempty"` // the part of Charge served since
	Elapsed     float64                `json:"elapsed,omitempty"`
	SubmittedAt int64                  `json:"submitted_at"`
	StartedAt   int64                  `json:"started_at,omitempty"`
	FinishedAt  int64                  `json:"finished_at,omitempty"`
	Tasks       []task.Task            `json:"tasks,omitempty"`
	Workers     []dist.JobWorkerResult `json:"workers,omitempty"`
}

// JournalSnapshot is the snapshot file: the whole retained queue plus
// the dispatcher-global state a replay cannot reconstruct from the
// tail alone. LSN is the last record the snapshot covers — replay
// skips tail records at or below it, which makes recovery safe
// against a crash between the snapshot rename and the journal
// truncation.
type JournalSnapshot struct {
	LSN            uint64             `json:"lsn"`
	Start          int64              `json:"start"` // dispatcher epoch, unix nanoseconds
	NextSeq        int                `json:"next_seq"`
	NextWire       int32              `json:"next_wire"`
	Served         map[string]float64 `json:"served,omitempty"`
	TasksSubmitted int                `json:"tasks_submitted,omitempty"`
	TasksDone      int                `json:"tasks_done,omitempty"`
	Reissued       int                `json:"reissued,omitempty"`
	Batches        int                `json:"batches,omitempty"`
	Done           int                `json:"done,omitempty"`
	Failed         int                `json:"failed,omitempty"`
	Cancelled      int                `json:"cancelled,omitempty"`
	Jobs           []JournalJob       `json:"jobs,omitempty"`
}

// decodeJournalRecord parses and validates one journal line: the LSN
// must be positive and exactly one payload must be present, matching
// the kind. Anything else — malformed JSON, unknown kinds, payload
// mismatches — is an error, never a panic (see FuzzJournalRecord).
func decodeJournalRecord(line []byte) (*JournalRecord, error) {
	var r JournalRecord
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, err
	}
	if r.LSN == 0 {
		return nil, fmt.Errorf("jobs: journal record without an lsn")
	}
	payloads := 0
	for _, p := range []bool{r.Submit != nil, r.Admit != nil, r.Task != nil, r.Retry != nil, r.Finish != nil} {
		if p {
			payloads++
		}
	}
	if payloads != 1 {
		return nil, fmt.Errorf("jobs: journal record %d carries %d payloads, want exactly 1", r.LSN, payloads)
	}
	ok := false
	switch r.Kind {
	case JournalKindSubmit:
		ok = r.Submit != nil
	case JournalKindAdmit:
		ok = r.Admit != nil
	case JournalKindTask:
		ok = r.Task != nil
	case JournalKindRetry:
		ok = r.Retry != nil
	case JournalKindFinish:
		ok = r.Finish != nil
	default:
		return nil, fmt.Errorf("jobs: journal record %d has unknown kind %q", r.LSN, r.Kind)
	}
	if !ok {
		return nil, fmt.Errorf("jobs: journal record %d kind %q does not match its payload", r.LSN, r.Kind)
	}
	return &r, nil
}

// record wraps a payload as its journal record, pointing at it.
// appendLocked copies the payload into the journal's own record before
// encoding, so neither the record nor the payload leaves the caller's
// stack, and with no journal open nothing is built at all.

func (p *JournalSubmit) record() JournalRecord {
	return JournalRecord{Kind: JournalKindSubmit, Submit: p}
}

func (p *JournalAdmit) record() JournalRecord {
	return JournalRecord{Kind: JournalKindAdmit, Admit: p}
}

func (p *JournalTask) record() JournalRecord {
	return JournalRecord{Kind: JournalKindTask, Task: p}
}

func (p *JournalRetry) record() JournalRecord {
	return JournalRecord{Kind: JournalKindRetry, Retry: p}
}

func (p *JournalFinish) record() JournalRecord {
	return JournalRecord{Kind: JournalKindFinish, Finish: p}
}

// journal is the dispatcher's open journal. All fields are guarded by
// the owning Dispatcher's mu; every method requiring it says so.
type journal struct {
	dir     string
	f       *os.File
	every   int    // Config.SnapshotEvery: >0 records per snapshot, 0 amortised, <0 none
	appends int    // records appended since the last snapshot
	tail    int    // bytes appended since the last snapshot
	last    []byte // the last snapshot written; its buffer is reused by the next
	failed  error  // why journaling stopped, once an append or snapshot failed
	// pending holds the lines of records staged in this hold of the lock
	// and not yet written, staged of them; CommitLocked writes them. enc
	// encodes into it: json.Marshal's bytes and a newline per record,
	// with no buffer of the record's own.
	pending bytes.Buffer
	enc     *json.Encoder
	staged  int
	// rec is the one record every append is staged from, pointing at
	// the payload of its kind in payload, where the caller's is copied.
	rec     JournalRecord
	payload struct {
		submit JournalSubmit
		admit  JournalAdmit
		task   JournalTask
		retry  JournalRetry
		finish JournalFinish
	}
}

// due reports whether the tail has paid for a snapshot. By default that
// is DefaultSnapshotEvery records holding at least as many bytes as the
// last snapshot: each snapshot is then no larger than the appends before
// the next one, so snapshot writes cost O(1) per record however large
// the retained state grows, and replay reads a snapshot plus a tail no
// larger than it (beyond the floor). A positive cadence is a fixed
// record count.
func (jr *journal) due() bool {
	if jr.every != 0 {
		return jr.every > 0 && jr.appends >= jr.every
	}
	return jr.appends >= DefaultSnapshotEvery && jr.tail >= len(jr.last)
}

// openJournal creates the directory if needed and opens the journal
// file for appending, returning the prior snapshot and tail records to
// replay (nil/empty on first start). A partial final line — the
// classic torn write of a crash mid-append — is ignored; corruption
// anywhere else is an error.
func openJournal(dir string, every int) (*journal, *JournalSnapshot, []*JournalRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("jobs: journal dir: %w", err)
	}
	var snap *JournalSnapshot
	if b, err := os.ReadFile(filepath.Join(dir, snapshotFile)); err == nil {
		snap = &JournalSnapshot{}
		if uerr := json.Unmarshal(b, snap); uerr != nil {
			return nil, nil, nil, fmt.Errorf("jobs: snapshot %s: %w", snapshotFile, uerr)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, fmt.Errorf("jobs: snapshot: %w", err)
	}

	var tail []*JournalRecord
	path := filepath.Join(dir, journalFile)
	if b, err := os.ReadFile(path); err == nil {
		// Trailing whitespace aside, the last line is the last append: a
		// decode failure there is a torn tail and is dropped; a failure
		// earlier is real corruption.
		lines := bytes.Split(bytes.TrimRightFunc(b, unicode.IsSpace), []byte("\n"))
		var prev uint64
		for i, ln := range lines {
			if len(bytes.TrimSpace(ln)) == 0 {
				continue
			}
			rec, derr := decodeJournalRecord(ln)
			if derr != nil {
				if i == len(lines)-1 {
					break // torn final append: replay what precedes it
				}
				return nil, nil, nil, fmt.Errorf("jobs: journal %s line %d: %w", journalFile, i+1, derr)
			}
			if rec.LSN <= prev {
				return nil, nil, nil, fmt.Errorf("jobs: journal %s line %d: lsn %d not after %d", journalFile, i+1, rec.LSN, prev)
			}
			prev = rec.LSN
			tail = append(tail, rec)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, fmt.Errorf("jobs: journal: %w", err)
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("jobs: journal: %w", err)
	}
	jr := &journal{dir: dir, f: f, every: every}
	jr.enc = json.NewEncoder(&jr.pending)
	return jr, snap, tail, nil
}

// appendLocked assigns the next LSN and stages the record; the release
// of d.mu that ends the hold writes it (CommitLocked). It writes early
// only when a snapshot falls due: the staged records go out first, then
// the snapshot, so every record reaches the journal and its counters
// keep their meaning, for one extra write per snapshot. Without a
// journal it does nothing. A failure permanently stops journaling
// (better a loud degraded dispatcher than a journal with holes) — it is
// logged once and reported by Health from then on. Caller holds d.mu.
func (d *Dispatcher) appendLocked(rec JournalRecord) {
	jr := d.jour
	if jr == nil || jr.failed != nil || d.pool.ClosedLocked() {
		return // Close stops journaling at the instant it stops serving
	}
	d.durable.LSN++
	// The payload is copied in by value, and Kind set from a constant:
	// keeping anything of rec's own would take the caller's payload to
	// the heap.
	r, p := &jr.rec, &jr.payload
	*r = JournalRecord{LSN: d.durable.LSN}
	switch rec.Kind {
	case JournalKindSubmit:
		r.Kind, p.submit, r.Submit = JournalKindSubmit, *rec.Submit, &p.submit
	case JournalKindAdmit:
		r.Kind, p.admit, r.Admit = JournalKindAdmit, *rec.Admit, &p.admit
	case JournalKindTask:
		r.Kind, p.task, r.Task = JournalKindTask, *rec.Task, &p.task
	case JournalKindRetry:
		r.Kind, p.retry, r.Retry = JournalKindRetry, *rec.Retry, &p.retry
	case JournalKindFinish:
		r.Kind, p.finish, r.Finish = JournalKindFinish, *rec.Finish, &p.finish
	}
	n := jr.pending.Len()
	err := jr.enc.Encode(r)    //pnanalyze:ok locksend — enc encodes into jr.pending, a bytes.Buffer, not a connection
	p.submit = JournalSubmit{} // holds no submitted task list past its record
	if err != nil {
		d.failLocked(err)
		return
	}
	jr.staged++
	jr.appends++
	jr.tail += jr.pending.Len() - n
	if jr.due() {
		d.CommitLocked()
		if jr.failed == nil {
			if err := d.snapshotJournalLocked(); err != nil {
				d.failLocked(err)
			}
		}
	}
}

// CommitLocked implements dist.Owner: releasing d.mu, and a due
// snapshot, call it, and the records the hold staged go out in one
// write. The buffer is kept for the next hold unless a large submit
// record grew it.
func (d *Dispatcher) CommitLocked() {
	jr := d.jour
	if jr == nil || jr.staged == 0 {
		return
	}
	if _, err := jr.f.Write(jr.pending.Bytes()); err != nil {
		d.failLocked(err)
		return
	}
	d.met.journalWrites.Inc()
	d.met.journalRecords.Add(float64(jr.staged))
	d.met.journalBytes.Add(float64(jr.pending.Len()))
	jr.staged = 0
	if jr.pending.Cap() > 64<<10 {
		jr.pending = bytes.Buffer{}
	} else {
		jr.pending.Reset()
	}
}

// failLocked stops journaling for err, dropping what is staged. Caller
// holds d.mu.
func (d *Dispatcher) failLocked(err error) {
	jr := d.jour
	jr.failed = fmt.Errorf("jobs: journal write failed, job state is no longer durable: %w", err)
	jr.pending, jr.staged = bytes.Buffer{}, 0
	d.pool.Log.Error("journal write failed; journaling disabled", "dir", jr.dir, "err", err)
}

// Health reports whether the dispatcher still keeps its promises: nil
// while every acknowledged transition reaches the journal (or no
// journal was asked for), the write failure that stopped journaling
// from then on — the dispatcher keeps serving, without durability.
func (d *Dispatcher) Health() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.jour == nil {
		return nil
	}
	return d.jour.failed
}

// snapshotLocked renders the dispatcher's whole durable state: the
// header it holds, stamped with the epoch, and every retained job.
// Caller holds d.mu.
func (d *Dispatcher) snapshotLocked() *JournalSnapshot {
	snap := d.durable
	snap.Start = stamp(d.pool.Start)
	snap.Served = maps.Clone(snap.Served)
	for _, j := range d.retainedLocked() {
		snap.Jobs = append(snap.Jobs, d.journalJobLocked(j))
	}
	return &snap
}

// encodeSnapshotLocked appends the snapshot file to buf: the bytes of
// json.MarshalIndent(d.snapshotLocked(), "", "\t") and a newline,
// assembled from the header and one element per job of the jobs array.
// Indentation is local to each value, so an element marshalled on its
// own at the array's depth is the element the whole document would
// hold. A terminal job's element is kept the first time it is built
// and copied from then on: nothing changes a terminal job, whose
// outstanding tasks were released with its leases. Caller holds d.mu.
func (d *Dispatcher) encodeSnapshotLocked(buf []byte) ([]byte, error) {
	head := d.durable
	head.Start = stamp(d.pool.Start)
	b, err := json.MarshalIndent(&head, "", "\t")
	if err != nil {
		return nil, err
	}
	retained := d.retainedLocked()
	if len(retained) == 0 {
		return append(append(buf, b...), '\n'), nil
	}
	// jobs is the header's last field: it goes before the closing "\n}".
	buf = append(buf, b[:len(b)-2]...)
	buf = append(buf, ",\n\t\"jobs\": ["...)
	for i, j := range retained {
		if i > 0 {
			buf = append(buf, ',')
		}
		el := j.enc
		if el == nil {
			if el, err = json.MarshalIndent(d.journalJobLocked(j), "\t\t", "\t"); err != nil {
				return nil, err
			}
			if j.terminal() {
				j.enc = el
			}
		}
		buf = append(append(buf, "\n\t\t"...), el...)
	}
	return append(buf, "\n\t]\n}\n"...), nil
}

// snapshotJournalLocked writes the full dispatcher state to the
// snapshot file (write-temp, fsync, atomic rename, fsync the directory)
// and truncates the journal: everything at or below the snapshot's LSN
// is now covered by the snapshot. The directory fsync orders the two: a
// power cut that kept the truncate but not the rename would lose both
// the tail and the snapshot that covers it. Caller holds d.mu.
func (d *Dispatcher) snapshotJournalLocked() error {
	jr := d.jour
	b, err := d.encodeSnapshotLocked(jr.last[:0])
	if err != nil {
		return err
	}
	jr.last = b
	tmp := filepath.Join(jr.dir, snapshotFile+".tmp")
	if err = writeSynced(tmp, b); err == nil {
		err = os.Rename(tmp, filepath.Join(jr.dir, snapshotFile))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err = syncDir(jr.dir); err == nil {
		err = jr.f.Truncate(0)
	}
	if err != nil {
		return err
	}
	jr.appends, jr.tail = 0, 0
	d.met.journalSnapshots.Inc()
	d.met.snapshotBytes.Add(float64(len(b)))
	return nil
}

// writeSynced creates path holding b and fsyncs it.
func writeSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory, making the renames inside it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// journalJobLocked renders one job in its snapshot form: the record it
// is held as, and for a live job its unfinished tasks — the unscheduled
// queue in order, then the in-flight tasks in ID order. Caller holds
// d.mu.
func (d *Dispatcher) journalJobLocked(j *job) JournalJob {
	rj := j.JournalJob
	rj.Workers = slices.Clone(j.Workers)
	if !j.terminal() {
		rj.Tasks = append(j.queue.Snapshot(), d.pool.InFlightLocked(j)...)
	}
	return rj
}

// The apply functions, one per record kind. Each installs exactly what
// its payload says — ledger values are the payload's post-operation
// absolutes, never recomputed. Callers hold d.mu; payloads read from
// disk are checked first (addJobLocked, replayRecord).

// addJobLocked installs one job from its durable form — a submit
// record's payload or a snapshot entry — refusing one no transition
// could have produced. It is the only place a job is constructed, so it
// holds the task rules for Submit and replay alike: every task passes
// dist.CheckTask and no task ID repeats. The record is copied in and
// its tasks become the queue. The scheduler is not part of the durable
// form: Submit sets the one it built, recovery resolves the spec again.
func (d *Dispatcher) addJobLocked(rj *JournalJob) (*job, error) {
	if rj.ID == "" || rj.Seq <= 0 {
		return nil, fmt.Errorf("jobs: journal job without id/seq (%q, %d)", rj.ID, rj.Seq)
	}
	if _, dup := d.jobsByID[rj.ID]; dup {
		return nil, fmt.Errorf("jobs: journal replays job %s twice", rj.ID)
	}
	switch rj.State {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		return nil, fmt.Errorf("jobs: journal job %s is in unknown state %q", rj.ID, rj.State)
	}
	if rj.Total < 0 || rj.Completed < 0 || rj.Retries < 0 || rj.Completed > rj.Total {
		return nil, fmt.Errorf("jobs: journal job %s has impossible counts (total %d, completed %d, retries %d)",
			rj.ID, rj.Total, rj.Completed, rj.Retries)
	}
	// A job's task IDs are its own and unique within it, because a task
	// record retires its task by ID.
	seen := make(map[task.ID]struct{}, len(rj.Tasks))
	for _, t := range rj.Tasks {
		if err := dist.CheckTask(t); err != nil {
			return nil, fmt.Errorf("jobs: job %s has %w", rj.ID, err)
		}
		if _, dup := seen[t.ID]; dup {
			return nil, fmt.Errorf("jobs: job %s has duplicate task id %d", rj.ID, t.ID)
		}
		seen[t.ID] = struct{}{}
	}
	j := &job{JournalJob: *rj, queue: task.NewQueue(len(rj.Tasks))}
	j.queue.PushAll(rj.Tasks)
	j.Tasks = nil
	j.Workers = slices.Clone(rj.Workers)
	slices.SortFunc(j.Workers, func(a, b dist.JobWorkerResult) int { return strings.Compare(a.Name, b.Name) })
	d.jobsByID[j.ID] = j
	d.order = append(d.order, j)
	d.durable.NextSeq = max(d.durable.NextSeq, j.Seq)
	return j, nil
}

// ledgerLocked installs the tenant's ledger value a record carries
// (fair policy only; nil otherwise).
func (d *Dispatcher) ledgerLocked(tenant string, served *float64) {
	if served == nil {
		return
	}
	if d.durable.Served == nil {
		d.durable.Served = map[string]float64{}
	}
	d.durable.Served[tenant] = *served
}

func (d *Dispatcher) applySubmitLocked(p *JournalSubmit) (*job, error) {
	j, err := d.addJobLocked(&p.Job)
	if err != nil {
		return nil, err
	}
	d.durable.TasksSubmitted += j.Total
	d.ledgerLocked(j.Tenant, p.Served)
	return j, nil
}

func (d *Dispatcher) applyAdmitLocked(j *job, p *JournalAdmit) {
	j.State = StateRunning
	j.StartedAt = p.At
	j.Charge = p.Charge
	j.ServedWork = 0
	d.ledgerLocked(j.Tenant, p.Served)
}

func (d *Dispatcher) applyTaskLocked(j *job, p *JournalTask) {
	j.Completed++
	j.ServedWork += p.Work
	j.Elapsed += p.Elapsed
	i, ok := slices.BinarySearchFunc(j.Workers, p.Worker,
		func(w dist.JobWorkerResult, name string) int { return strings.Compare(w.Name, name) })
	if !ok {
		j.Workers = slices.Insert(j.Workers, i, dist.JobWorkerResult{Name: p.Worker})
	}
	j.Workers[i].Tasks++
	j.Workers[i].Work += p.Work
	d.durable.TasksDone++
}

func (d *Dispatcher) applyRetryLocked(j *job, p *JournalRetry) {
	j.Retries += p.Tasks
	d.durable.Reissued += p.Tasks
}

// applyFinishLocked takes a job to the terminal state the payload
// names: the unscheduled remainder is dropped and the admission charge
// is settled (the refund is already inside p.Served).
func (d *Dispatcher) applyFinishLocked(j *job, p *JournalFinish) {
	j.State = p.State
	j.Error = p.Error
	j.FinishedAt = p.At
	j.Charge, j.ServedWork = 0, 0
	j.queue.PopN(j.queue.Len())
	switch p.State {
	case StateDone:
		d.durable.Done++
	case StateFailed:
		d.durable.Failed++
	case StateCancelled:
		d.durable.Cancelled++
	}
	d.ledgerLocked(j.Tenant, p.Served)
}

// recover opens the journal, replays snapshot+tail into the freshly
// constructed dispatcher, and normalizes what a restart changes:
//
//   - terminal jobs stay queryable exactly as they finished;
//   - queued jobs re-enter the pending queue (submission order) with
//     their tenant's virtual time intact;
//   - jobs that were running are re-queued with one retry spent (their
//     worker leases are gone) and their unserved admission charge
//     refunded; a job whose budget that spend exhausts fails instead;
//   - a job whose scheduler spec no longer resolves fails rather than
//     aborting recovery.
//
// Recovery ends with normal admission and a fresh snapshot (truncating
// the replayed tail), so the journal is immediately ready for the next
// crash. The journal is installed only for that snapshot: nothing
// recovery does is appended record by record, so a crash mid-recovery
// leaves the directory as it was found. Called from New before the
// dispatcher is shared; the job events it stages wait for the snapshot.
func (d *Dispatcher) recover(dir string, every int) error {
	t0 := time.Now()
	d.recovering = true
	jr, snap, tail, err := openJournal(dir, every)
	if err != nil {
		return err
	}
	if err := d.replayLocked(snap, tail); err != nil {
		jr.f.Close()
		return err
	}

	// Every lease died with the old process, so a running job goes back
	// to the pending queue with one retry spent — unless that spend
	// exhausts its budget. Pending is rebuilt in submission order with
	// each live job's scheduler resolved again.
	now := time.Now()
	sort.Slice(d.order, func(a, b int) bool { return d.order[a].Seq < d.order[b].Seq })
	for _, j := range d.order {
		why := ""
		if j.State == StateRunning {
			if d.policy == PolicyFair {
				v := d.refundedLocked(j)
				d.ledgerLocked(j.Tenant, &v)
			}
			j.Charge, j.ServedWork = 0, 0
			j.State = StateQueued
			j.StartedAt = 0
			d.applyRetryLocked(j, &JournalRetry{ID: j.ID, Tasks: 1})
			if j.Retries > j.Budget {
				why = fmt.Sprintf("retry budget exhausted: %d reissues exceed budget %d (dispatcher restarted mid-run)", j.Retries, j.Budget)
			}
		}
		if j.State != StateQueued {
			d.finished = append(d.finished, j) // terminal: stays queryable as it finished
			continue
		}
		if why == "" {
			sch, err := d.cfg.NewScheduler(j.Spec)
			if err == nil {
				j.sch = sch
				j.Scheduler = sch.Name()
				d.pending = append(d.pending, j)
				continue
			}
			why = fmt.Sprintf("scheduler spec no longer resolves: %v", err)
		}
		d.retireLocked(j, StateFailed, why, now)
	}
	// Retention evicts in finish order, across the restart too.
	slices.SortFunc(d.finished, func(a, b *job) int {
		return cmp.Or(cmp.Compare(a.FinishedAt, b.FinishedAt), cmp.Compare(a.Seq, b.Seq))
	})
	d.trimLocked(now)
	d.admitLocked(now)
	d.jour = jr
	if err := d.snapshotJournalLocked(); err != nil {
		jr.f.Close()
		return err
	}
	for _, ev := range d.held {
		d.pool.StageLocked(ev)
	}
	d.recovering, d.held = false, nil
	d.replaySec = time.Since(t0).Seconds()
	if snap != nil || len(tail) > 0 {
		d.pool.Log.Info("journal replayed", "dir", dir, "jobs", len(d.jobsByID),
			"pending", len(d.pending), "tail_records", len(tail),
			"seconds", d.replaySec)
	}
	return nil
}

// replayLocked loads a snapshot — whose header becomes the dispatcher's
// own, snap.Served included — and applies the tail records above its
// LSN: the journal's content and nothing else — what a restart changes
// is recover's business. Caller holds d.mu on an empty dispatcher.
func (d *Dispatcher) replayLocked(snap *JournalSnapshot, tail []*JournalRecord) error {
	if snap != nil {
		if min(snap.NextSeq, int(snap.NextWire), snap.TasksSubmitted, snap.TasksDone,
			snap.Reissued, snap.Batches, snap.Done, snap.Failed, snap.Cancelled) < 0 {
			return fmt.Errorf("jobs: snapshot %d holds a negative counter", snap.LSN)
		}
		d.pool.Start = time.Unix(0, snap.Start)
		d.durable = *snap
		d.durable.Start, d.durable.Jobs = 0, nil
		for i := range snap.Jobs {
			if _, err := d.addJobLocked(&snap.Jobs[i]); err != nil {
				return err
			}
		}
	}
	// A task record's job still holds the task in its rebuilt queue; the
	// completed IDs are collected per job and each queue filtered once.
	retired := map[*job][]task.ID{}
	for _, rec := range tail {
		if rec.LSN <= d.durable.LSN {
			continue // already covered by the snapshot
		}
		if err := d.replayRecord(rec, retired); err != nil {
			return err
		}
		d.durable.LSN = rec.LSN
	}
	for j, ids := range retired {
		j.retireQueued(ids)
	}
	return nil
}

// replayRecord applies one decoded record: check what only a record
// from disk can get wrong, look the job up, call the apply function the
// live transition called. A completed task is noted in retired for
// replayLocked to drop from the job's queue.
func (d *Dispatcher) replayRecord(rec *JournalRecord, retired map[*job][]task.ID) error {
	var id string
	switch rec.Kind {
	case JournalKindSubmit:
		rj := &rec.Submit.Job
		if rj.State != StateQueued || rj.Completed != 0 || rj.Retries != 0 {
			return fmt.Errorf("jobs: journal record %d submits job %s already %s (completed %d, retries %d)",
				rec.LSN, rj.ID, rj.State, rj.Completed, rj.Retries)
		}
		if rj.Total != len(rj.Tasks) {
			return fmt.Errorf("jobs: journal record %d submits job %s with %d of its %d tasks",
				rec.LSN, rj.ID, len(rj.Tasks), rj.Total)
		}
		_, err := d.applySubmitLocked(rec.Submit)
		return err
	case JournalKindAdmit:
		id = rec.Admit.ID
	case JournalKindTask:
		id = rec.Task.ID
	case JournalKindRetry:
		id = rec.Retry.ID
	case JournalKindFinish:
		id = rec.Finish.ID
	}
	j, ok := d.jobsByID[id]
	if !ok {
		return fmt.Errorf("jobs: journal record %d names unknown job %q", rec.LSN, id)
	}
	switch rec.Kind {
	case JournalKindAdmit:
		d.applyAdmitLocked(j, rec.Admit)
	case JournalKindTask:
		d.applyTaskLocked(j, rec.Task)
		retired[j] = append(retired[j], rec.Task.Task)
	case JournalKindRetry:
		if rec.Retry.Tasks < 0 {
			return fmt.Errorf("jobs: journal record %d spends %d retries on job %s", rec.LSN, rec.Retry.Tasks, id)
		}
		d.applyRetryLocked(j, rec.Retry)
	case JournalKindFinish:
		switch rec.Finish.State {
		case StateDone, StateFailed, StateCancelled:
		default:
			return fmt.Errorf("jobs: journal record %d finishes job %s into non-terminal state %q",
				rec.LSN, id, rec.Finish.State)
		}
		d.applyFinishLocked(j, rec.Finish)
	}
	return nil
}

// retireQueued drops the given tasks (by the job's own task IDs) from
// the unscheduled queue in one pass, keeping the order of the rest.
func (j *job) retireQueued(ids []task.ID) {
	gone := make(map[task.ID]struct{}, len(ids))
	for _, id := range ids {
		gone[id] = struct{}{}
	}
	j.queue.PushAll(slices.DeleteFunc(j.queue.PopN(j.queue.Len()), func(t task.Task) bool {
		_, ok := gone[t.ID]
		return ok
	}))
}
