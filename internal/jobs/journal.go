package jobs

// Durable job state: an append-only JSON-lines journal plus periodic
// snapshots, so a dispatcher restart loses nothing. Every state
// transition the dispatcher commits — submit, admit, task completion
// tally, retry spend, finish (done/failed/cancelled) — is appended as
// one JournalRecord line *before* the transition is acknowledged over
// the wire: the hooks run under d.mu, and replies/events are only
// written after the lock is released, so an acknowledged transition is
// always on disk. A snapshot (the full retained queue, the per-tenant
// fair-share ledger, and the lifetime counters) is written every
// SnapshotEvery records and truncates the replayed history; New
// replays snapshot+tail on startup. See docs/job-journal.md for the
// record grammar and the recovery rules.
//
// Appending under d.mu is deliberate: the journal is a plain
// os.File write of an already-marshalled line (no connection I/O, no
// channel sends), and doing it inside the critical section is what
// makes "journaled before acknowledged" atomic with the transition
// itself. Durability is against process death — records reach the
// kernel on every append; only snapshots fsync.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/task"
	"pnsched/internal/units"
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
	Task    int32   `json:"task"`
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
	ID          string               `json:"id"`
	Seq         int                  `json:"seq"`
	Tenant      string               `json:"tenant"`
	Priority    int                  `json:"priority,omitempty"`
	Spec        json.RawMessage      `json:"spec,omitempty"`
	Scheduler   string               `json:"scheduler,omitempty"`
	State       string               `json:"state"`
	Total       int                  `json:"total"`
	Completed   int                  `json:"completed,omitempty"`
	Retries     int                  `json:"retries,omitempty"`
	Budget      int                  `json:"retry_budget"`
	Error       string               `json:"error,omitempty"`
	Charge      float64              `json:"charge,omitempty"`
	ServedWork  float64              `json:"served_work,omitempty"`
	Elapsed     float64              `json:"elapsed,omitempty"`
	SubmittedAt int64                `json:"submitted_at"`
	StartedAt   int64                `json:"started_at,omitempty"`
	FinishedAt  int64                `json:"finished_at,omitempty"`
	Tasks       []dist.WireTask      `json:"tasks,omitempty"`
	Workers     []JournalWorkerTally `json:"workers,omitempty"`
}

// JournalWorkerTally is one worker's completion tally within a
// JournalJob.
type JournalWorkerTally struct {
	Name  string  `json:"name"`
	Tasks int     `json:"tasks"`
	Work  float64 `json:"work"`
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

// encodeJournalRecord renders one record as its canonical journal
// line, newline included.
func encodeJournalRecord(r *JournalRecord) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
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

// journal is the dispatcher's open journal. All fields are guarded by
// the owning Dispatcher's mu; every method requiring it says so.
type journal struct {
	dir     string
	f       *os.File
	lsn     uint64 // last assigned LSN
	appends int    // records appended since the last snapshot
	every   int    // snapshot cadence in records; 0 disables
	broken  bool   // an append failed: journaling stopped, logged once
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
		lines := bytes.Split(b, []byte("\n"))
		// Find the last non-empty line: a decode failure there is a torn
		// tail and is dropped; a failure earlier is real corruption.
		last := -1
		for i, ln := range lines {
			if len(bytes.TrimSpace(ln)) > 0 {
				last = i
			}
		}
		var prev uint64
		for i, ln := range lines {
			if len(bytes.TrimSpace(ln)) == 0 {
				continue
			}
			rec, derr := decodeJournalRecord(ln)
			if derr != nil {
				if i == last {
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
	if snap != nil {
		jr.lsn = snap.LSN
	}
	if n := len(tail); n > 0 {
		jr.lsn = tail[n-1].LSN
	}
	return jr, snap, tail, nil
}

// appendLocked assigns the next LSN, writes the record, and triggers a
// snapshot when the cadence is due. A write failure permanently stops
// journaling (better a loud degraded dispatcher than a journal with
// holes) — it is logged once and counted nowhere else. Caller holds
// d.mu.
func (d *Dispatcher) appendLocked(rec *JournalRecord) {
	jr := d.jour
	if jr == nil || jr.broken || d.pool.ClosedLocked() {
		return // Close stops journaling at the instant it stops serving
	}
	jr.lsn++
	rec.LSN = jr.lsn
	line, err := encodeJournalRecord(rec)
	if err == nil {
		_, err = jr.f.Write(line)
	}
	if err != nil {
		jr.broken = true
		d.pool.Log.Error("journal append failed; journaling disabled", "dir", jr.dir, "err", err)
		return
	}
	d.met.journalRecords.Inc()
	d.met.journalBytes.Add(float64(len(line)))
	jr.appends++
	if jr.every > 0 && jr.appends >= jr.every {
		if err := d.snapshotJournalLocked(); err != nil {
			jr.broken = true
			d.pool.Log.Error("journal snapshot failed; journaling disabled", "dir", jr.dir, "err", err)
		}
	}
}

// snapshotJournalLocked writes the full dispatcher state to the
// snapshot file (write-temp, fsync, atomic rename) and truncates the
// journal: everything at or below the snapshot's LSN is now covered by
// the snapshot. Caller holds d.mu.
func (d *Dispatcher) snapshotJournalLocked() error {
	jr := d.jour
	snap := &JournalSnapshot{
		LSN:            jr.lsn,
		Start:          d.pool.Start.UnixNano(),
		NextSeq:        d.nextSeq,
		NextWire:       d.nextWire,
		TasksSubmitted: d.tasksSubmitted,
		TasksDone:      d.tasksDone,
		Reissued:       d.reissued,
		Batches:        d.batches,
		Done:           d.doneCount,
		Failed:         d.failedCount,
		Cancelled:      d.cancelCount,
	}
	if len(d.served) > 0 {
		snap.Served = make(map[string]float64, len(d.served))
		for t, v := range d.served {
			snap.Served[t] = v
		}
	}
	for _, j := range d.order {
		snap.Jobs = append(snap.Jobs, d.journalJobLocked(j, false))
	}
	b, err := json.MarshalIndent(snap, "", "\t")
	if err != nil {
		return err
	}
	tmp := filepath.Join(jr.dir, snapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(jr.dir, snapshotFile)); err != nil {
		return err
	}
	if err := jr.f.Truncate(0); err != nil {
		return err
	}
	jr.appends = 0
	d.met.journalSnapshots.Inc()
	return nil
}

// journalJobLocked renders one job in its durable form. full selects
// the complete task list (submit records); otherwise only unfinished
// tasks — the job's unscheduled queue in order, then its in-flight
// tasks in ID order — are included, and none for terminal jobs.
// Caller holds d.mu.
func (d *Dispatcher) journalJobLocked(j *job, full bool) JournalJob {
	rj := JournalJob{
		ID:          j.id,
		Seq:         j.seq,
		Tenant:      j.tenant,
		Priority:    j.priority,
		Spec:        j.spec,
		Scheduler:   j.schName,
		State:       j.state,
		Total:       j.total,
		Completed:   j.completed,
		Retries:     j.retries,
		Budget:      j.budget,
		Error:       j.errMsg,
		Charge:      j.charge,
		ServedWork:  j.servedWork,
		Elapsed:     j.elapsedSum,
		SubmittedAt: j.submittedAt.UnixNano(),
	}
	if !j.startedAt.IsZero() {
		rj.StartedAt = j.startedAt.UnixNano()
	}
	if !j.finishedAt.IsZero() {
		rj.FinishedAt = j.finishedAt.UnixNano()
	}
	if full || (j.state != StateDone && j.state != StateFailed && j.state != StateCancelled) {
		rj.Tasks = dist.TasksToWire(append(j.queue.Snapshot(), d.pool.InFlightLocked(j)...))
	}
	names := make([]string, 0, len(j.perWorker))
	for name := range j.perWorker {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := j.perWorker[name]
		rj.Workers = append(rj.Workers, JournalWorkerTally{
			Name: name, Tasks: t.tasks, Work: float64(t.work),
		})
	}
	return rj
}

// servedPtr returns the tenant's post-transition ledger value for a
// record, or nil outside the fair policy (the ledger is meaningless
// then and omitted from the record). Caller holds d.mu.
func (d *Dispatcher) servedPtr(tenant string) *float64 {
	if d.policy != PolicyFair {
		return nil
	}
	v := d.served[tenant]
	return &v
}

// The transition hooks, one per record kind. Each is called under d.mu
// at the exact point the transition commits, before any reply or event
// leaves the lock.

func (d *Dispatcher) journalSubmitLocked(j *job) {
	if d.jour == nil {
		return
	}
	d.appendLocked(&JournalRecord{Kind: JournalKindSubmit, Submit: &JournalSubmit{
		Job:    d.journalJobLocked(j, true),
		Served: d.servedPtr(j.tenant),
	}})
}

func (d *Dispatcher) journalAdmitLocked(j *job, now time.Time) {
	if d.jour == nil {
		return
	}
	d.appendLocked(&JournalRecord{Kind: JournalKindAdmit, Admit: &JournalAdmit{
		ID:     j.id,
		At:     now.UnixNano(),
		Charge: j.charge,
		Served: d.servedPtr(j.tenant),
	}})
}

func (d *Dispatcher) journalTaskLocked(j *job, workerName string, t task.Task, elapsed units.Seconds) {
	if d.jour == nil {
		return
	}
	d.appendLocked(&JournalRecord{Kind: JournalKindTask, Task: &JournalTask{
		ID:      j.id,
		Task:    int32(t.ID),
		Worker:  workerName,
		Elapsed: float64(elapsed),
		Work:    float64(t.Size),
	}})
}

func (d *Dispatcher) journalRetryLocked(j *job, n int) {
	if d.jour == nil {
		return
	}
	d.appendLocked(&JournalRecord{Kind: JournalKindRetry, Retry: &JournalRetry{ID: j.id, Tasks: n}})
}

func (d *Dispatcher) journalFinishLocked(j *job, now time.Time) {
	if d.jour == nil {
		return
	}
	d.appendLocked(&JournalRecord{Kind: JournalKindFinish, Finish: &JournalFinish{
		ID:     j.id,
		State:  j.state,
		Error:  j.errMsg,
		At:     now.UnixNano(),
		Served: d.servedPtr(j.tenant),
	}})
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
// Recovery ends with a fresh snapshot (truncating the replayed tail)
// and normal admission, so the journal is immediately ready for the
// next crash. Called from New before the dispatcher is shared; returns
// the admission events for New to emit.
func (d *Dispatcher) recover(dir string, every int) (emits, error) {
	t0 := time.Now()
	jr, snap, tail, err := openJournal(dir, every)
	if err != nil {
		return nil, err
	}
	d.jour = jr

	if snap != nil {
		d.pool.Start = time.Unix(0, snap.Start)
		d.nextSeq = snap.NextSeq
		d.nextWire = snap.NextWire
		d.tasksSubmitted = snap.TasksSubmitted
		d.tasksDone = snap.TasksDone
		d.reissued = snap.Reissued
		d.batches = snap.Batches
		d.doneCount = snap.Done
		d.failedCount = snap.Failed
		d.cancelCount = snap.Cancelled
		for t, v := range snap.Served {
			d.served[t] = v
		}
		for _, rj := range snap.Jobs {
			if err := d.replayJob(rj); err != nil {
				return nil, err
			}
		}
	}
	base := uint64(0)
	if snap != nil {
		base = snap.LSN
	}
	for _, rec := range tail {
		if rec.LSN <= base {
			continue // already covered by the snapshot
		}
		if err := d.replayRecord(rec); err != nil {
			return nil, err
		}
	}

	// Normalize interrupted jobs: every lease died with the old
	// process, so a running job spends one retry and goes back to the
	// pending queue — unless that spend exhausts its budget.
	now := time.Now()
	for _, j := range d.order {
		if j.state != StateRunning {
			continue
		}
		d.refundLocked(j)
		j.state = StateQueued
		j.startedAt = time.Time{}
		j.retries++
		d.reissued++
		if j.retries > j.budget {
			j.state = StateFailed
			j.errMsg = fmt.Sprintf("retry budget exhausted: %d reissues exceed budget %d (dispatcher restarted mid-run)", j.retries, j.budget)
			j.finishedAt = now
			d.failedCount++
		}
	}

	// Rebuild the derived queues in submission order and resolve each
	// live job's scheduler; a spec that stopped resolving fails the job
	// rather than the recovery.
	sort.Slice(d.order, func(a, b int) bool { return d.order[a].seq < d.order[b].seq })
	for _, j := range d.order {
		if j.state != StateQueued {
			continue
		}
		sch, err := d.cfg.NewScheduler(j.spec)
		if err != nil {
			j.state = StateFailed
			j.errMsg = fmt.Sprintf("scheduler spec no longer resolves: %v", err)
			j.finishedAt = now
			d.failedCount++
			continue
		}
		j.sch = sch
		j.schName = sch.Name()
		d.pending = append(d.pending, j)
	}
	d.trimLocked(now)
	ems := d.admitLocked(now)
	if err := d.snapshotJournalLocked(); err != nil {
		return nil, err
	}
	d.replaySec = time.Since(t0).Seconds()
	if snap != nil || len(tail) > 0 {
		d.pool.Log.Info("journal replayed", "dir", dir, "jobs", len(d.order),
			"pending", len(d.pending), "tail_records", len(tail),
			"seconds", d.replaySec)
	}
	return ems, nil
}

// replayJob reconstructs one job from its durable form. Schedulers are
// resolved later (recover's normalization pass), once the job's final
// post-replay state is known.
func (d *Dispatcher) replayJob(rj JournalJob) error {
	if rj.ID == "" || rj.Seq <= 0 {
		return fmt.Errorf("jobs: journal job without id/seq (%q, %d)", rj.ID, rj.Seq)
	}
	if _, dup := d.jobsByID[rj.ID]; dup {
		return fmt.Errorf("jobs: journal replays job %s twice", rj.ID)
	}
	ts := dist.TasksFromWire(rj.Tasks)
	j := &job{
		id:          rj.ID,
		seq:         rj.Seq,
		tenant:      rj.Tenant,
		priority:    rj.Priority,
		spec:        rj.Spec,
		schName:     rj.Scheduler,
		state:       rj.State,
		queue:       task.NewQueue(len(ts)),
		total:       rj.Total,
		completed:   rj.Completed,
		retries:     rj.Retries,
		budget:      rj.Budget,
		errMsg:      rj.Error,
		charge:      rj.Charge,
		servedWork:  rj.ServedWork,
		elapsedSum:  rj.Elapsed,
		submittedAt: time.Unix(0, rj.SubmittedAt),
		perWorker:   map[string]*workerTally{},
	}
	j.queue.PushAll(ts)
	if rj.StartedAt != 0 {
		j.startedAt = time.Unix(0, rj.StartedAt)
	}
	if rj.FinishedAt != 0 {
		j.finishedAt = time.Unix(0, rj.FinishedAt)
	}
	for _, wt := range rj.Workers {
		j.perWorker[wt.Name] = &workerTally{tasks: wt.Tasks, work: units.MFlops(wt.Work)}
	}
	d.jobsByID[j.id] = j
	d.order = append(d.order, j)
	if j.seq > d.nextSeq {
		d.nextSeq = j.seq
	}
	return nil
}

// replayRecord applies one tail record on top of the replayed state.
func (d *Dispatcher) replayRecord(rec *JournalRecord) error {
	lookup := func(id string) (*job, error) {
		j, ok := d.jobsByID[id]
		if !ok {
			return nil, fmt.Errorf("jobs: journal record %d names unknown job %q", rec.LSN, id)
		}
		return j, nil
	}
	switch rec.Kind {
	case JournalKindSubmit:
		if err := d.replayJob(rec.Submit.Job); err != nil {
			return err
		}
		d.tasksSubmitted += rec.Submit.Job.Total
		if rec.Submit.Served != nil {
			d.served[rec.Submit.Job.Tenant] = *rec.Submit.Served
		}
	case JournalKindAdmit:
		j, err := lookup(rec.Admit.ID)
		if err != nil {
			return err
		}
		j.state = StateRunning
		j.startedAt = time.Unix(0, rec.Admit.At)
		j.charge = rec.Admit.Charge
		j.servedWork = 0
		if rec.Admit.Served != nil {
			d.served[j.tenant] = *rec.Admit.Served
		}
	case JournalKindTask:
		j, err := lookup(rec.Task.ID)
		if err != nil {
			return err
		}
		j.removeQueuedTask(task.ID(rec.Task.Task))
		j.completed++
		j.servedWork += rec.Task.Work
		j.elapsedSum += rec.Task.Elapsed
		tally := j.perWorker[rec.Task.Worker]
		if tally == nil {
			tally = &workerTally{}
			j.perWorker[rec.Task.Worker] = tally
		}
		tally.tasks++
		tally.work += units.MFlops(rec.Task.Work)
		d.tasksDone++
	case JournalKindRetry:
		j, err := lookup(rec.Retry.ID)
		if err != nil {
			return err
		}
		j.retries += rec.Retry.Tasks
		d.reissued += rec.Retry.Tasks
	case JournalKindFinish:
		j, err := lookup(rec.Finish.ID)
		if err != nil {
			return err
		}
		j.state = rec.Finish.State
		j.errMsg = rec.Finish.Error
		j.finishedAt = time.Unix(0, rec.Finish.At)
		j.charge, j.servedWork = 0, 0
		j.queue.PopN(j.queue.Len())
		switch rec.Finish.State {
		case StateDone:
			d.doneCount++
		case StateFailed:
			d.failedCount++
		case StateCancelled:
			d.cancelCount++
		default:
			return fmt.Errorf("jobs: journal record %d finishes job %s into non-terminal state %q",
				rec.LSN, j.id, rec.Finish.State)
		}
		if rec.Finish.Served != nil {
			d.served[j.tenant] = *rec.Finish.Served
		}
	}
	return nil
}

// removeQueuedTask drops one task (by the job's own task ID) from the
// job's unscheduled queue; replay uses it to retire completed tasks.
func (j *job) removeQueuedTask(id task.ID) {
	ts := j.queue.PopN(j.queue.Len())
	for i, t := range ts {
		if t.ID == id {
			ts = append(ts[:i], ts[i+1:]...)
			break
		}
	}
	j.queue.PushAll(ts)
}
