// Package observe defines the typed observer protocol of the public
// pnsched API: one interface through which every runtime in the repo —
// the discrete-event simulator (internal/sim), the live TCP scheduling
// server (internal/dist), and the GA engines underneath them
// (internal/core, internal/island) — reports the events a caller can
// watch a scheduling run through.
//
// It replaces the scattered per-layer callback fields the runtimes
// grew independently (core.Config.OnBestMakespan, island.Config
// round hooks, ad-hoc sim traces) with one vocabulary:
//
//   - BatchDecided    — a batch scheduler committed an assignment
//   - GenerationBest  — a GA generation improved (or confirmed) the
//     best predicted makespan (the paper's Fig. 3 instrumentation)
//   - Migration       — an island-model round exchanged elites over
//     the ring
//   - Dispatch        — a task was sent to a processor / worker
//   - BudgetStop      — a GA run stopped because the §3.4
//     time-to-first-idle budget was exhausted
//   - EvolveDone      — a GA run finished; the full evaluation ledger
//     (generations, evaluations, genes, budget spent vs. modelled)
//   - WorkerJoined    — a worker registered with the live server
//   - WorkerLeft      — a worker disconnected (its unfinished tasks
//     were reissued)
//
// The worker lifecycle events are emitted only by the live runtime —
// the simulator's processor set is fixed per run — but they are part
// of the one shared vocabulary so wire subscribers can follow pool
// churn with the same Observer they use for everything else.
//
// The job lifecycle events are emitted only by the multi-tenant job
// dispatcher (internal/jobs), for the jobs in its queue:
//
//   - JobQueued   — a job was admitted to the dispatcher queue
//   - JobStarted  — a job left the queue and was leased workers
//   - JobDone     — a job reached a terminal state (done, failed,
//     or cancelled)
//
// The event structs are also the payloads of the live runtime's event
// stream: internal/dist puts them on the wire as themselves, so their
// json tags are the payload grammar of docs/wire-protocol.md and a
// remote watcher's Observer receives exactly the value the in-process
// one does. A new field needs a tag (the wirejson analyzer insists) and
// a protocol minor bump.
//
// Implementations must be cheap and must not block: events are
// delivered synchronously from the emitting runtime's hot path. For
// island-model runs, GenerationBest, Migration and BudgetStop may be
// delivered from different goroutines (coordinator and island
// workers); observers that aggregate across them must synchronise.
package observe

import (
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// BatchDecision reports one committed batch-scheduling decision.
type BatchDecision struct {
	// Invocation is the 1-based count of batch decisions so far in
	// this run or server lifetime.
	Invocation int `json:"invocation"`
	// Scheduler is the deciding scheduler's Name().
	Scheduler string `json:"scheduler"`
	// Tasks is the number of tasks in the batch.
	Tasks int `json:"tasks"`
	// Procs is the number of processors / workers the batch was
	// spread over.
	Procs int `json:"procs"`
	// Cost is the modelled scheduler compute time the decision
	// consumed (zero for the O(n·M) heuristics).
	Cost units.Seconds `json:"cost"`
	// At is the decision time: simulated seconds in the simulator,
	// seconds since server start in the live runtime.
	At units.Seconds `json:"at"`
	// Wall is real wall-clock time the decision took, in seconds.
	// The live server always fills it; simulator paths may leave it
	// zero (the modelled Cost is the honest figure there).
	Wall units.Seconds `json:"wall,omitempty"`
}

// GenerationBest reports the best predicted makespan after one GA
// generation — the instrumentation behind the paper's Fig. 3.
type GenerationBest struct {
	// Generation is the generation number within the current batch
	// decision (island runs report the most advanced island's count).
	Generation int `json:"generation"`
	// Makespan is the lowest predicted makespan seen so far in this
	// GA run.
	Makespan units.Seconds `json:"makespan"`
}

// Migration reports one island-model ring exchange.
type Migration struct {
	// Round is the 1-based migration round.
	Round int `json:"round"`
	// Migrants is the number of individuals injected across the whole
	// ring this round.
	Migrants int `json:"migrants"`
}

// Dispatch reports one task leaving the scheduler for a processor.
type Dispatch struct {
	// Proc is the destination processor (simulator) or worker index
	// (live runtime, registration order at decision time).
	Proc int `json:"proc"`
	// Task identifies the dispatched task.
	Task task.ID `json:"task"`
	// At is the dispatch time on the same clock as
	// BatchDecision.At.
	At units.Seconds `json:"at"`
}

// BudgetStop reports a GA run terminating on the §3.4 stop-when-idle
// condition: the modelled evaluation cost exhausted the
// time-until-first-idle budget.
type BudgetStop struct {
	// Generation is the number of generations the run had completed
	// when the budget fired (an island run's most advanced island's).
	Generation int `json:"generation"`
	// Budget is the time-to-first-idle allowance the run was given.
	Budget units.Seconds `json:"budget"`
	// Spent is the modelled cost billed when the run stopped.
	Spent units.Seconds `json:"spent"`
}

// EvolveDone reports the end-of-run ledger of one GA evolution — the
// per-decision convergence accounting the paper's §3.4 budget argument
// turns on, summarised once per batch decision instead of once per
// generation.
type EvolveDone struct {
	// Generations is the number of generations the run completed.
	Generations int `json:"generations"`
	// Evaluations is the number of full fitness evaluations performed.
	Evaluations int `json:"evaluations"`
	// Genes is the number of genes touched by fitness evaluation: a
	// full evaluation touches the whole chromosome, an incremental one
	// only the queues it rescans.
	Genes int `json:"genes"`
	// RebalanceEvals counts load-balancing evaluations by the §3.5
	// rebalancer.
	RebalanceEvals int `json:"rebalance_evals,omitempty"`
	// Budget is the §3.4 time-to-first-idle allowance the run was
	// given (zero means unlimited).
	Budget units.Seconds `json:"budget,omitempty"`
	// Spent is the modelled evaluation cost the run billed against
	// the budget.
	Spent units.Seconds `json:"spent"`
	// BestMakespan is the final best predicted makespan.
	BestMakespan units.Seconds `json:"best_makespan"`
	// Reason is the engine's stop reason ("max-generations" or
	// "callback" — the latter covering budget stops).
	Reason string `json:"reason"`
}

// WorkerJoined reports a worker registering with the live server.
type WorkerJoined struct {
	// Name is the worker's wire identity (hello name).
	Name string `json:"name"`
	// Rate is the execution rate the worker claimed when joining, in
	// Mflop/s (its Linpack rating for pnworker).
	Rate units.Rate `json:"rate"`
	// Workers is the connected-worker count after this join.
	Workers int `json:"workers"`
	// At is the join time in seconds since the server started.
	At units.Seconds `json:"at"`
}

// WorkerLeft reports a worker disconnecting from the live server.
type WorkerLeft struct {
	// Name is the worker's wire identity.
	Name string `json:"name"`
	// Reissued is the number of unfinished tasks the worker held, all
	// returned to the unscheduled queue (the paper's dynamic
	// rescheduling on machine loss).
	Reissued int `json:"reissued"`
	// Workers is the connected-worker count after this departure.
	Workers int `json:"workers"`
	// At is the departure time in seconds since the server started.
	At units.Seconds `json:"at"`
}

// JobQueued reports a job admitted to the dispatcher queue.
type JobQueued struct {
	// ID is the dispatcher-assigned job identity.
	ID string `json:"id"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// Priority is the job's admission priority (higher first under the
	// priority policy).
	Priority int `json:"priority,omitempty"`
	// Tasks is the number of tasks the job carries.
	Tasks int `json:"tasks"`
	// Queued is the number of queued (not yet started) jobs after this
	// enqueue.
	Queued int `json:"queued"`
	// At is the enqueue time in seconds since the dispatcher started.
	At units.Seconds `json:"at"`
}

// JobStarted reports a job leaving the queue: it was admitted to run
// and leased its initial worker set.
type JobStarted struct {
	// ID is the job identity.
	ID string `json:"id"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// Workers is the number of workers leased to the job at start
	// (zero when the job starts ahead of any worker joining).
	Workers int `json:"workers"`
	// Waited is the time the job spent queued, in seconds.
	Waited units.Seconds `json:"waited"`
	// At is the start time in seconds since the dispatcher started.
	At units.Seconds `json:"at"`
}

// JobDone reports a job reaching a terminal state.
type JobDone struct {
	// ID is the job identity.
	ID string `json:"id"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// State is the terminal state: "done", "failed" or "cancelled".
	State string `json:"state"`
	// Completed is the number of tasks that finished before the
	// terminal state (equal to the job's task count when State is
	// "done").
	Completed int `json:"completed"`
	// Retries is the number of task reissues the job consumed from its
	// retry budget.
	Retries int `json:"retries,omitempty"`
	// Duration is start→finish wall time in seconds (zero when the job
	// never started).
	Duration units.Seconds `json:"duration"`
	// At is the finish time in seconds since the dispatcher started.
	At units.Seconds `json:"at"`
}

// Observer receives scheduling events. All methods must be safe to
// call with the zero value of their event's optional fields;
// implementations that only care about a subset should embed Funcs
// (or use Funcs directly) rather than hand-writing no-ops. The live
// runtime delivers the job lifecycle events one at a time, in the order
// it committed them.
type Observer interface {
	OnBatchDecided(BatchDecision)
	OnGenerationBest(GenerationBest)
	OnMigration(Migration)
	OnDispatch(Dispatch)
	OnBudgetStop(BudgetStop)
	OnEvolveDone(EvolveDone)
	OnWorkerJoined(WorkerJoined)
	OnWorkerLeft(WorkerLeft)
	OnJobQueued(JobQueued)
	OnJobStarted(JobStarted)
	OnJobDone(JobDone)
}

// Funcs adapts plain functions to Observer; nil fields ignore their
// event. The zero Funcs is a valid no-op Observer.
type Funcs struct {
	BatchDecided   func(BatchDecision)
	GenerationBest func(GenerationBest)
	Migration      func(Migration)
	Dispatch       func(Dispatch)
	BudgetStop     func(BudgetStop)
	EvolveDone     func(EvolveDone)
	WorkerJoined   func(WorkerJoined)
	WorkerLeft     func(WorkerLeft)
	JobQueued      func(JobQueued)
	JobStarted     func(JobStarted)
	JobDone        func(JobDone)
}

// OnBatchDecided implements Observer.
func (f Funcs) OnBatchDecided(e BatchDecision) {
	if f.BatchDecided != nil {
		f.BatchDecided(e)
	}
}

// OnGenerationBest implements Observer.
func (f Funcs) OnGenerationBest(e GenerationBest) {
	if f.GenerationBest != nil {
		f.GenerationBest(e)
	}
}

// OnMigration implements Observer.
func (f Funcs) OnMigration(e Migration) {
	if f.Migration != nil {
		f.Migration(e)
	}
}

// OnDispatch implements Observer.
func (f Funcs) OnDispatch(e Dispatch) {
	if f.Dispatch != nil {
		f.Dispatch(e)
	}
}

// OnBudgetStop implements Observer.
func (f Funcs) OnBudgetStop(e BudgetStop) {
	if f.BudgetStop != nil {
		f.BudgetStop(e)
	}
}

// OnEvolveDone implements Observer.
func (f Funcs) OnEvolveDone(e EvolveDone) {
	if f.EvolveDone != nil {
		f.EvolveDone(e)
	}
}

// OnWorkerJoined implements Observer.
func (f Funcs) OnWorkerJoined(e WorkerJoined) {
	if f.WorkerJoined != nil {
		f.WorkerJoined(e)
	}
}

// OnWorkerLeft implements Observer.
func (f Funcs) OnWorkerLeft(e WorkerLeft) {
	if f.WorkerLeft != nil {
		f.WorkerLeft(e)
	}
}

// OnJobQueued implements Observer.
func (f Funcs) OnJobQueued(e JobQueued) {
	if f.JobQueued != nil {
		f.JobQueued(e)
	}
}

// OnJobStarted implements Observer.
func (f Funcs) OnJobStarted(e JobStarted) {
	if f.JobStarted != nil {
		f.JobStarted(e)
	}
}

// OnJobDone implements Observer.
func (f Funcs) OnJobDone(e JobDone) {
	if f.JobDone != nil {
		f.JobDone(e)
	}
}

// multi fans every event out to several observers in order.
type multi []Observer

func (m multi) OnBatchDecided(e BatchDecision) {
	for _, o := range m {
		o.OnBatchDecided(e)
	}
}

func (m multi) OnGenerationBest(e GenerationBest) {
	for _, o := range m {
		o.OnGenerationBest(e)
	}
}

func (m multi) OnMigration(e Migration) {
	for _, o := range m {
		o.OnMigration(e)
	}
}

func (m multi) OnDispatch(e Dispatch) {
	for _, o := range m {
		o.OnDispatch(e)
	}
}

func (m multi) OnBudgetStop(e BudgetStop) {
	for _, o := range m {
		o.OnBudgetStop(e)
	}
}

func (m multi) OnEvolveDone(e EvolveDone) {
	for _, o := range m {
		o.OnEvolveDone(e)
	}
}

func (m multi) OnWorkerJoined(e WorkerJoined) {
	for _, o := range m {
		o.OnWorkerJoined(e)
	}
}

func (m multi) OnWorkerLeft(e WorkerLeft) {
	for _, o := range m {
		o.OnWorkerLeft(e)
	}
}

func (m multi) OnJobQueued(e JobQueued) {
	for _, o := range m {
		o.OnJobQueued(e)
	}
}

func (m multi) OnJobStarted(e JobStarted) {
	for _, o := range m {
		o.OnJobStarted(e)
	}
}

func (m multi) OnJobDone(e JobDone) {
	for _, o := range m {
		o.OnJobDone(e)
	}
}

// Multi combines observers into one that delivers every event to each
// in order. Nil entries are dropped; Multi() and Multi(nil) return
// nil, and a single survivor is returned unwrapped.
func Multi(obs ...Observer) Observer {
	var live multi
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
