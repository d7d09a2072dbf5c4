// Package jobs implements the job dispatcher, the one dist.Pool owner:
// it holds a queue of jobs — each a workload plus its own scheduler,
// tenant and priority — or, under pnsched.Serve, one open job that never
// finishes and that Append keeps adding tasks to (Config.Open).
//
// The pool carries the whole worker conversation (hello/assign/done,
// §3.6 smoothing, loss detection, watch, stats, trace and the batch
// loop; pnworker cannot tell Serve from ServeJobs). This package adds
// only what is about jobs: the job_submit/job_status/job_cancel/
// job_result one-shot exchanges, the job lifecycle kinds job_queued /
// job_started / job_done on the shared event stream, admission, leases,
// retry budgets, the journal, and the job-level pnsched_jobs_* series
// beside the pool's own pnsched_* ones.
//
// The dispatcher admits queued jobs under a configurable policy —
// FIFO, priority, or weighted fair-share across tenants (stride
// scheduling over admitted work) — and leases workers from the shared
// pool to the active jobs: a worker belongs to at most one job at a
// time, runs that job's batches through the job's own scheduler, and
// is reclaimed when the job ends. Worker loss is charged to per-job
// retry budgets: a lost task returns to its job's queue and spends one
// retry; a job that exhausts its budget fails, releasing its workers
// to the next job.
//
// Job state is declared once and has one writer. The dispatcher holds a
// job as its JournalJob and its counters as a JournalSnapshot, the
// structs the journal writes (journal.go), and every transition —
// submit, admit, task done, retry spend, finish — is a journal record
// whose apply…Locked function is the only code that changes them. The
// live paths here and in owner.go decide, apply the record and append it
// when Config.JournalDir is set; recovery applies the same records.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/observe"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// Policy selects how queued jobs are admitted to run.
type Policy string

const (
	// PolicyFIFO admits jobs in submission order.
	PolicyFIFO Policy = "fifo"
	// PolicyPriority admits the highest-priority queued job first,
	// submission order within a priority.
	PolicyPriority Policy = "priority"
	// PolicyFair admits jobs by weighted fair share across tenants:
	// each tenant accrues virtual time as admitted work divided by its
	// weight, and the pending job of the furthest-behind tenant goes
	// next (stride scheduling). Tenants returning from idle are lifted
	// to the minimum live virtual time so they cannot hoard credit.
	PolicyFair Policy = "fair"
)

// ParsePolicy maps a policy name (as the CLI flags spell it) to a
// Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyFIFO, PolicyPriority, PolicyFair:
		return Policy(s), nil
	case "":
		return PolicyFIFO, nil
	}
	return "", fmt.Errorf("jobs: unknown admission policy %q (want fifo, priority or fair)", s)
}

// Job states, as reported in JobInfo.State and the job_done event.
// The state machine is linear: queued → running → one of the three
// terminal states; queued jobs may also go directly to cancelled.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

const (
	// DefaultRetryBudget is the per-job reissue allowance when neither
	// the submission nor the Config names one.
	DefaultRetryBudget = 64
	// DefaultMaxActive is the number of jobs run concurrently when
	// Config.MaxActive is zero. One active job keeps admission ordering
	// exact: the policies decide the run order, not lease contention.
	DefaultMaxActive = 1
	// DefaultRetain is the number of terminal jobs (and their results)
	// kept for job_status/job_result before the one that finished
	// longest ago is evicted, once out of DefaultRetainGrace.
	DefaultRetain = 256
	// DefaultTenant is the accounting tenant of submissions that name
	// none.
	DefaultTenant = "default"
	// DefaultSnapshotEvery is the floor of the default journal snapshot
	// cadence (Config.SnapshotEvery zero): no snapshot is written before
	// the tail holds this many records, however small the state.
	DefaultSnapshotEvery = 256
)

// DefaultRetainGrace is how long a just-finished job is immune from
// retention eviction, whatever DefaultRetain says: long enough for a
// client polling `pnjobs submit -wait` (500ms cadence) to observe the
// terminal state before the job can be evicted.
const DefaultRetainGrace = 5 * time.Second

// Config configures a Dispatcher.
type Config struct {
	// NewScheduler builds a job's batch scheduler from the submission's
	// raw spec (empty spec selects the caller's default). The
	// dispatcher is deliberately ignorant of the registry so the import
	// DAG stays acyclic; the root package injects its Spec machinery
	// here. Exactly one of NewScheduler and Open is set.
	NewScheduler func(spec json.RawMessage) (sched.Batch, error)
	// Open, when set, is the scheduler of the one open job the
	// dispatcher then runs instead of a job queue — the paper's single
	// stream of work, as pnsched.Serve offers it. The open job is
	// running from New on and never finishes; Append adds its tasks and
	// WaitOpen waits for them. Its retry budget is unlimited and it
	// keeps no journal, so JournalDir must be empty. Such a dispatcher
	// emits no job events, serves no job_* requests and registers no
	// pnsched_jobs_* series.
	Open sched.Batch
	// Policy selects the admission order; empty means PolicyFIFO.
	Policy Policy
	// Weights are the per-tenant fair-share weights (PolicyFair);
	// tenants absent from the map weigh 1. Values must be positive.
	Weights map[string]float64
	// MaxActive bounds concurrently running jobs; 0 selects
	// DefaultMaxActive. With more than one active job the worker pool
	// is split between them in proportion to tenant weight.
	MaxActive int
	// RetryBudget is the default per-job reissue allowance for
	// submissions that carry none; 0 selects DefaultRetryBudget.
	RetryBudget int
	// JournalDir, when non-empty, makes job state durable: every state
	// transition is appended to an append-only JSON-lines journal in
	// this directory before it is acknowledged over the wire, periodic
	// snapshots bound replay, and New replays snapshot+journal on
	// startup — job IDs are stable across a restart, terminal jobs
	// stay queryable, queued jobs keep their tenant's virtual time,
	// and running jobs are re-queued with one retry spent. See
	// docs/job-journal.md.
	JournalDir string
	// SnapshotEvery is the journal snapshot cadence. 0 selects the
	// amortised default: a snapshot once the tail holds at least
	// DefaultSnapshotEvery records and at least as many bytes as the last
	// snapshot, so snapshot writes cost no more than the appends they
	// follow and replay reads at most twice the state. A positive value
	// is a fixed cadence in appended records; negative disables periodic
	// snapshots (one is still written after each recovery).
	SnapshotEvery int
	// PoolConfig is the worker pool's share — logging, observers, wire
	// events, metrics (the pool registers its pnsched_* series, the
	// dispatcher adds the job-level pnsched_jobs_*), smoothing and
	// dispatch pacing.
	dist.PoolConfig
}

// job is one submitted job: its durable record, held in the form the
// journal writes it, beside what only the running process knows. All
// mutable fields are guarded by the owning Dispatcher's mu.
type job struct {
	// JournalJob is the job's durable state, written only by the
	// apply…Locked functions. Timestamps are the record's unix
	// nanoseconds (stamp, Dispatcher.clock). Workers is kept sorted by
	// name; Tasks is nil — the unfinished tasks live in queue and on the
	// pool's workers, and are attached when the record is rendered.
	JournalJob

	sch     sched.Batch
	queue   *task.Queue // unscheduled tasks (including reissues)
	leased  int         // workers currently leased to this job
	batches int
	// enc is a terminal job's element of the snapshot file, kept from
	// the first snapshot that covers it (encodeSnapshotLocked).
	enc []byte
	// evicted marks a job retention has dropped; Dispatcher.order still
	// holds it until compacted (retainedLocked).
	evicted bool
}

// String names the job where the pool logs its lease.
func (j *job) String() string { return j.ID }

// terminal reports whether the job has reached one of the three end
// states.
func (j *job) terminal() bool {
	return j.State == StateDone || j.State == StateFailed || j.State == StateCancelled
}

// stamp is a time as durable state holds it: unix nanoseconds.
func stamp(t time.Time) int64 { return t.UnixNano() }

// clock converts a durable timestamp to the pool clock the wire speaks —
// seconds since the dispatcher's epoch; zero ("not yet") stays 0.
func (d *Dispatcher) clock(ns int64) float64 {
	if ns == 0 {
		return 0
	}
	return float64(d.pool.Since(time.Unix(0, ns)))
}

// emits is the ordered list of job events a locked transition
// produced, delivered by the pool after the lock is released (the
// events-outside-the-lock rule locksend enforces).
type emits = []dist.JobEvent

// Dispatcher is the multi-tenant job service. Create with New; all
// methods are safe for concurrent use.
type Dispatcher struct {
	cfg         Config
	policy      Policy
	maxAct      int
	retain      int
	retainGrace time.Duration
	met         *jobMetrics
	// pool holds the workers and their conversation; mu is its lock,
	// which guards everything below as well.
	pool *dist.Pool
	mu   *sync.Mutex

	jobsByID map[string]*job
	order    []*job // every retained job, submission order, plus evicted ones not yet compacted
	evicted  int    // evicted jobs still in order
	pending  []*job // queued jobs, submission order
	active   []*job // running jobs, admission order
	finished []*job // retained terminal jobs, finish order: the retention FIFO
	// open is the open job (Config.Open), nil otherwise. It is in active
	// and nowhere else.
	open *job

	// durable is the dispatcher-global durable state in the form the
	// snapshot file writes it: the LSN of the last record it reflects,
	// NextSeq, NextWire (see WireIDLocked), the lifetime counters, and
	// Served — the fair-share ledger, admitted work (MFLOPs) per tenant;
	// virtual time is served/weight. Start and Jobs stay zero here:
	// snapshotLocked fills them in.
	durable JournalSnapshot

	// jour is the open journal when Config.JournalDir is set;
	// replaySec is how long the startup replay took (for telemetry).
	jour      *journal
	replaySec float64
}

// New returns a dispatcher ready to serve; call Serve.
func New(cfg Config) (*Dispatcher, error) {
	return newRetaining(cfg, DefaultRetain, DefaultRetainGrace)
}

// newRetaining is New with its retention cap and grace window given:
// New passes the defaults, tests pass smaller ones.
func newRetaining(cfg Config, retain int, grace time.Duration) (*Dispatcher, error) {
	switch {
	case (cfg.NewScheduler == nil) == (cfg.Open == nil):
		return nil, errors.New("jobs: Config needs exactly one of NewScheduler and Open")
	case cfg.Open != nil && cfg.JournalDir != "":
		return nil, errors.New("jobs: the open job keeps no journal")
	}
	policy, err := ParsePolicy(string(cfg.Policy))
	if err != nil {
		return nil, err
	}
	for t, w := range cfg.Weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("jobs: tenant %q has non-positive weight %v", t, w)
		}
	}
	if cfg.MaxActive < 0 {
		return nil, fmt.Errorf("jobs: negative MaxActive %d", cfg.MaxActive)
	}
	if cfg.RetryBudget < 0 {
		return nil, fmt.Errorf("jobs: negative RetryBudget %d", cfg.RetryBudget)
	}
	d := &Dispatcher{
		cfg:         cfg,
		policy:      policy,
		maxAct:      cfg.MaxActive,
		retain:      retain,
		retainGrace: grace,
		jobsByID:    map[string]*job{},
	}
	d.pool, err = dist.NewPool(cfg.PoolConfig, d)
	if err != nil {
		return nil, err
	}
	d.mu = &d.pool.Mu
	if d.maxAct == 0 {
		d.maxAct = DefaultMaxActive
	}
	if cfg.Open != nil {
		d.open = &job{
			JournalJob: JournalJob{ID: "open", Scheduler: cfg.Open.Name(), State: StateRunning, Budget: math.MaxInt},
			sch:        cfg.Open,
			queue:      task.NewQueue(64),
		}
		d.active = []*job{d.open}
		go d.pool.Run(d.open, d.open.queue, d.open.sch)
	}
	d.met = newJobMetrics(cfg.Metrics, d)
	if cfg.JournalDir != "" {
		d.mu.Lock()
		ems, err := d.recover(cfg.JournalDir, cfg.SnapshotEvery)
		d.mu.Unlock()
		if err != nil {
			return nil, err
		}
		d.pool.Emit(ems)
	}
	return d, nil
}

// Submit validates and enqueues one job, returning its accepted state.
// The scheduler is constructed up front (outside the lock) so a bad
// spec is rejected at submission, not at start. The tasks are checked
// where replay checks them, in addJobLocked, before anything changes.
func (d *Dispatcher) Submit(sub dist.JobSubmission) (dist.JobInfo, error) {
	if len(sub.Tasks) == 0 {
		return dist.JobInfo{}, errors.New("jobs: submission with no tasks")
	}
	if sub.RetryBudget != nil && *sub.RetryBudget < 0 {
		return dist.JobInfo{}, fmt.Errorf("jobs: negative retry budget %d", *sub.RetryBudget)
	}
	sch, err := d.cfg.NewScheduler(sub.Spec)
	if err != nil {
		return dist.JobInfo{}, err
	}
	tenant := sub.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	budget := d.cfg.RetryBudget
	if budget == 0 {
		budget = DefaultRetryBudget
	}
	if sub.RetryBudget != nil {
		budget = *sub.RetryBudget
	}

	now := time.Now()
	d.mu.Lock()
	if d.pool.ClosedLocked() {
		d.mu.Unlock()
		return dist.JobInfo{}, errors.New("jobs: dispatcher closed")
	}
	seq := d.durable.NextSeq + 1
	p := JournalSubmit{Job: JournalJob{
		ID:          fmt.Sprintf("job-%04d", seq),
		Seq:         seq,
		Tenant:      tenant,
		Priority:    sub.Priority,
		Spec:        sub.Spec,
		Scheduler:   sch.Name(),
		State:       StateQueued,
		Total:       len(sub.Tasks),
		Budget:      budget,
		SubmittedAt: stamp(now),
		Tasks:       sub.Tasks,
	}}
	if d.policy == PolicyFair {
		v := d.liftedLocked(tenant) // before the job joins the queues and looks live
		p.Served = &v
	}
	j, err := d.applySubmitLocked(&p)
	if err != nil {
		d.mu.Unlock()
		return dist.JobInfo{}, err
	}
	j.sch = sch
	d.pending = append(d.pending, j)
	d.met.submitted.Inc()
	if d.jour != nil {
		d.appendLocked(p.record())
	}
	ems := emits{{Queued: &observe.JobQueued{
		ID:       j.ID,
		Tenant:   j.Tenant,
		Priority: j.Priority,
		Tasks:    j.Total,
		Queued:   len(d.pending),
		At:       d.pool.Since(now),
	}}}
	ems = append(ems, d.admitLocked(now)...)
	info := d.infoLocked(j)
	d.pool.Broadcast()
	d.mu.Unlock()
	d.pool.Emit(ems)
	return info, nil
}

// liftedLocked implements the fair-share no-hoarding rule: a tenant
// submitting after an idle spell (no pending or active jobs) is lifted
// to the minimum virtual time among live tenants, so credit accrued by
// absence cannot starve everyone else. It returns the tenant's ledger
// after the lift — unchanged when none applies — for the submit record
// to carry. Caller holds mu.
func (d *Dispatcher) liftedLocked(tenant string) float64 {
	live := func(t string) bool {
		for _, j := range d.pending {
			if j.Tenant == t {
				return true
			}
		}
		for _, j := range d.active {
			if j.Tenant == t {
				return true
			}
		}
		return false
	}
	served := d.durable.Served
	if live(tenant) {
		return served[tenant] // already competing: no adjustment mid-stream
	}
	minVT := math.Inf(1)
	any := false
	for t := range served {
		if t != tenant && live(t) {
			if vt := served[t] / d.weight(t); vt < minVT {
				minVT = vt
				any = true
			}
		}
	}
	w := d.weight(tenant)
	if any && minVT > served[tenant]/w {
		return minVT * w
	}
	return served[tenant]
}

// weight is a tenant's fair-share weight (1 when unconfigured).
func (d *Dispatcher) weight(tenant string) float64 {
	if w, ok := d.cfg.Weights[tenant]; ok {
		return w
	}
	return 1
}

// pickLocked chooses the next pending job under the admission policy.
// Caller holds mu; pending must be non-empty.
func (d *Dispatcher) pickLocked() *job {
	switch d.policy {
	case PolicyPriority:
		best := d.pending[0]
		for _, j := range d.pending[1:] {
			if j.Priority > best.Priority {
				best = j // ties keep the earlier submission
			}
		}
		return best
	case PolicyFair:
		// One head per tenant (pending is submission-ordered, so the
		// first job seen per tenant is its head), then the head of the
		// furthest-behind tenant; ties go to the earlier submission.
		var best *job
		bestVT := math.Inf(1)
		seen := map[string]struct{}{}
		for _, j := range d.pending {
			if _, dup := seen[j.Tenant]; dup {
				continue
			}
			seen[j.Tenant] = struct{}{}
			if vt := d.durable.Served[j.Tenant] / d.weight(j.Tenant); vt < bestVT {
				best, bestVT = j, vt
			}
		}
		return best
	default: // PolicyFIFO
		return d.pending[0]
	}
}

// admitLocked starts pending jobs while active slots are free: pick
// under the policy, lease workers, charge the fair-share ledger, and
// launch the job's scheduling runner. Caller holds mu.
func (d *Dispatcher) admitLocked(now time.Time) emits {
	var ems emits
	for len(d.active) < d.maxAct && len(d.pending) > 0 {
		j := d.pickLocked()
		d.pending = removeJob(d.pending, j)
		d.active = append(d.active, j)
		// The admission charge is the job's unscheduled work *now* —
		// identical to its total on first admission, and only the
		// remainder when a recovered job is re-admitted after a restart.
		p := JournalAdmit{ID: j.ID, At: stamp(now), Charge: float64(j.queue.TotalSize())}
		if d.policy == PolicyFair {
			v := d.durable.Served[j.Tenant] + p.Charge
			p.Served = &v
		}
		d.applyAdmitLocked(j, &p)
		if d.jour != nil {
			d.appendLocked(p.record())
		}
		d.rebalanceLocked()
		waited := time.Duration(p.At - j.SubmittedAt).Seconds()
		d.met.schedLatency.Observe(waited)
		ems = append(ems, dist.JobEvent{Started: &observe.JobStarted{
			ID:      j.ID,
			Tenant:  j.Tenant,
			Workers: j.leased,
			Waited:  units.Seconds(waited),
			At:      d.pool.Since(now),
		}})
		go d.pool.Run(j, j.queue, j.sch)
	}
	return ems
}

// rebalanceLocked assigns every free (unleased) worker to the active
// job furthest below its weight-proportional share. Leases are sticky:
// a worker stays with its job until the job ends or the worker leaves,
// so running batches keep a stable worker set. Caller holds mu.
func (d *Dispatcher) rebalanceLocked() {
	for _, w := range d.pool.WorkersLocked() {
		if w.Lease == nil {
			w.Lease = d.LeaseLocked(w)
		}
	}
	d.pool.Broadcast()
}

// finishLocked moves a job to a terminal state and lets its successors
// in: retire, evict beyond the retention cap, admit, re-lease. Caller
// holds mu; no-op if the job is already terminal.
func (d *Dispatcher) finishLocked(j *job, state, errMsg string, now time.Time) emits {
	if j.terminal() {
		return emits{}
	}
	ems := emits{d.retireLocked(j, state, errMsg, now)}
	d.trimLocked(now)
	ems = append(ems, d.admitLocked(now)...)
	d.rebalanceLocked()
	d.pool.Broadcast()
	return ems
}

// retireLocked is the finish transition itself: the job leaves the
// queues, its worker leases are released (and with them its outstanding
// tasks), the finish record settles the fair-share charge and drops the
// unscheduled remainder. Returns the job_done event. Caller holds mu
// and has checked the job is not already terminal.
func (d *Dispatcher) retireLocked(j *job, state, errMsg string, now time.Time) dist.JobEvent {
	p := JournalFinish{ID: j.ID, State: state, Error: errMsg, At: stamp(now)}
	if d.policy == PolicyFair {
		v := d.refundedLocked(j)
		p.Served = &v
	}
	d.pending = removeJob(d.pending, j)
	d.active = removeJob(d.active, j)
	d.finished = append(d.finished, j)
	d.pool.ReleaseLocked(j)
	j.leased = 0
	d.applyFinishLocked(j, &p)
	d.met.finished[state].Inc()
	if d.jour != nil {
		d.appendLocked(p.record())
	}
	var dur float64
	if j.StartedAt != 0 {
		dur = time.Duration(p.At - j.StartedAt).Seconds()
	}
	return dist.JobEvent{Done: &observe.JobDone{
		ID:        j.ID,
		Tenant:    j.Tenant,
		State:     state,
		Completed: j.Completed,
		Retries:   j.Retries,
		Duration:  units.Seconds(dur),
		At:        d.pool.Since(now),
	}}
}

// refundedLocked returns what the tenant's fair-share ledger is once a
// job's unserved admission charge has gone back to it: a job cancelled
// or failed mid-run was charged for its whole remaining work up front,
// and without the refund the tenant's next job would be unfairly
// delayed by work that was never served. A job that ran to completion
// has served exactly its charge, so the refund degenerates to
// (float-dust) zero. Whoever installs the value also zeroes the charge,
// which is what keeps a second refund from finding anything. Caller
// holds mu.
func (d *Dispatcher) refundedLocked(j *job) float64 {
	served := d.durable.Served[j.Tenant]
	if refund := j.Charge - j.ServedWork; j.Charge > 0 && refund > 0 {
		served = math.Max(served-refund, 0)
	}
	return served
}

// trimLocked evicts terminal jobs beyond the retention cap so a
// long-lived dispatcher's memory stays bounded: the job that finished
// longest ago goes first, from the head of the finished FIFO. A job
// inside the retain-grace window is never evicted, whatever the cap: a
// client polling for the job it just submitted must be able to read the
// terminal state at least once; eviction stops at the first such head.
// An evicted job is only marked in order, which is compacted once the
// marked jobs are half of it, so an eviction costs O(1) amortised.
// Caller holds mu.
func (d *Dispatcher) trimLocked(now time.Time) {
	at := stamp(now)
	for len(d.finished) > d.retain {
		j := d.finished[0]
		if time.Duration(at-j.FinishedAt) < d.retainGrace {
			break
		}
		d.finished[0] = nil
		d.finished = d.finished[1:]
		delete(d.jobsByID, j.ID)
		j.evicted = true
		d.evicted++
	}
	if 2*d.evicted > len(d.order) {
		d.retainedLocked()
	}
}

// retainedLocked returns every retained job in submission order,
// compacting the evicted ones out of order first. Caller holds mu.
func (d *Dispatcher) retainedLocked() []*job {
	if d.evicted > 0 {
		d.order = slices.DeleteFunc(d.order, func(j *job) bool { return j.evicted })
		d.evicted = 0
	}
	return d.order
}

// removeJob removes j from s preserving order; no-op if absent.
func removeJob(s []*job, j *job) []*job {
	if i := slices.Index(s, j); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// Status returns one job's current state.
func (d *Dispatcher) Status(id string) (dist.JobInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobsByID[id]
	if !ok {
		return dist.JobInfo{}, fmt.Errorf("jobs: unknown job %q", id)
	}
	return d.infoLocked(j), nil
}

// Queue returns every retained job — queued, running and terminal —
// in submission order.
func (d *Dispatcher) Queue() []dist.JobInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	retained := d.retainedLocked()
	out := make([]dist.JobInfo, len(retained))
	for i, j := range retained {
		out[i] = d.infoLocked(j)
	}
	return out
}

// Cancel cancels a queued or running job. Cancelling a running job
// releases its leased workers immediately (the next job starts right
// away); tasks already on workers cannot be recalled and their late
// reports are ignored. Cancelling a terminal job is an error.
func (d *Dispatcher) Cancel(id string) (dist.JobInfo, error) {
	now := time.Now()
	d.mu.Lock()
	j, ok := d.jobsByID[id]
	if !ok {
		d.mu.Unlock()
		return dist.JobInfo{}, fmt.Errorf("jobs: unknown job %q", id)
	}
	if j.terminal() {
		state := j.State
		d.mu.Unlock()
		return dist.JobInfo{}, fmt.Errorf("jobs: job %s already %s", id, state)
	}
	ems := d.finishLocked(j, StateCancelled, "", now)
	info := d.infoLocked(j)
	d.mu.Unlock()
	d.pool.Emit(ems)
	return info, nil
}

// Result returns a terminal job's outcome; requesting a queued or
// running job's result is an error.
func (d *Dispatcher) Result(id string) (dist.JobResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobsByID[id]
	if !ok {
		return dist.JobResult{}, fmt.Errorf("jobs: unknown job %q", id)
	}
	if !j.terminal() {
		return dist.JobResult{}, fmt.Errorf("jobs: job %s still %s", id, j.State)
	}
	res := dist.JobResult{
		ID:        j.ID,
		Tenant:    j.Tenant,
		State:     j.State,
		Tasks:     j.Total,
		Completed: j.Completed,
		Retries:   j.Retries,
		Error:     j.Error,
		Elapsed:   j.Elapsed,
		Workers:   slices.Clone(j.Workers),
	}
	if j.StartedAt != 0 {
		res.Duration = d.clock(j.FinishedAt) - d.clock(j.StartedAt)
	}
	return res, nil
}

// Wait blocks until the job reaches a terminal state, the timeout
// elapses (non-positive waits indefinitely), or the dispatcher
// closes.
func (d *Dispatcher) Wait(id string, timeout time.Duration) (dist.JobInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var j *job
	closed, expired := d.pool.AwaitLocked(timeout, func() bool {
		j = d.jobsByID[id]
		return j == nil || j.terminal()
	})
	switch {
	case j == nil:
		return dist.JobInfo{}, fmt.Errorf("jobs: unknown job %q", id)
	case closed:
		return d.infoLocked(j), errors.New("jobs: dispatcher closed")
	case expired:
		return d.infoLocked(j), fmt.Errorf("jobs: job %s still %s after %v", id, j.State, timeout)
	}
	return d.infoLocked(j), nil
}

// infoLocked builds a job's external view. Caller holds mu.
func (d *Dispatcher) infoLocked(j *job) dist.JobInfo {
	info := dist.JobInfo{
		ID:          j.ID,
		Tenant:      j.Tenant,
		Priority:    j.Priority,
		State:       j.State,
		Scheduler:   j.Scheduler,
		Tasks:       j.Total,
		Completed:   j.Completed,
		Retries:     j.Retries,
		RetryBudget: j.Budget,
		Workers:     j.leased,
		Error:       j.Error,
		SubmittedAt: d.clock(j.SubmittedAt),
		StartedAt:   d.clock(j.StartedAt),
		FinishedAt:  d.clock(j.FinishedAt),
	}
	if j.State == StateQueued {
		info.Position = slices.Index(d.pending, j) + 1
	}
	return info
}

// Append adds tasks to the open job: its queue, its Total and the
// lifetime TasksSubmitted. It may be called any number of times,
// including while earlier tasks are still processing; tasks appended
// after Close are dropped. A task that breaks dist.CheckTask rejects
// the whole call and nothing is added. Only a dispatcher with
// Config.Open has an open job to append to.
func (d *Dispatcher) Append(ts []task.Task) error {
	for _, t := range ts {
		if err := dist.CheckTask(t); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pool.ClosedLocked() {
		return nil
	}
	d.open.queue.PushAll(ts)
	d.open.Total += len(ts)
	d.durable.TasksSubmitted += len(ts)
	d.pool.Broadcast()
	return nil
}

// WaitOpen blocks until every task appended to the open job has
// completed (at least one must have been), the timeout elapses
// (non-positive waits indefinitely), or the dispatcher closes
// (dist.ErrServerClosed).
func (d *Dispatcher) WaitOpen(timeout time.Duration) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	j := d.open
	closed, expired := d.pool.AwaitLocked(timeout, func() bool { return j.Total > 0 && j.Completed == j.Total })
	switch {
	case closed:
		return dist.ErrServerClosed
	case expired:
		return fmt.Errorf("dist: wait: %d/%d tasks complete after %v", j.Completed, j.Total, timeout)
	}
	return nil
}

// Workers returns a snapshot of the connected workers.
func (d *Dispatcher) Workers() []dist.WorkerStatus { return d.pool.Workers() }

// Snapshot returns the dispatcher's operational view: the pool's, with
// the job counts block filled in unless the dispatcher runs the open
// job.
func (d *Dispatcher) Snapshot() dist.Snapshot { return d.pool.Snapshot() }

// Serve accepts connections on ln until Close, taking ownership of the
// listener. Returns nil when closed.
func (d *Dispatcher) Serve(ln net.Listener) error { return d.pool.Serve(ln) }

// Close shuts the dispatcher down: listener and worker connections are
// closed, runners stop, blocked Wait calls return. Queued and running
// jobs stay in their last state — Close is shutdown, not cancellation.
// Idempotent.
func (d *Dispatcher) Close() error {
	err := d.pool.Close()
	d.mu.Lock()
	var jf *os.File
	if d.jour != nil {
		jf = d.jour.f
		d.jour = nil // journaled state stays on disk for the next New
	}
	d.mu.Unlock()
	if jf != nil {
		jf.Close()
	}
	return err
}
