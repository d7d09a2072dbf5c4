package dist

import (
	"encoding/json"

	"pnsched/internal/observe"
)

// This file defines the exported payload types of the job dispatcher
// messages (protocol 1.3). They are both wire structs — carried
// verbatim inside the message envelope — and the public API types the
// root package re-exports, so internal/jobs, the typed client and the
// pnjobs CLI all speak in exactly the terms the wire does.

// JobSubmission is the payload of a job_submit request: one workload
// plus everything the dispatcher needs to place it — tenant, priority,
// a per-job scheduler spec, and an optional retry budget.
type JobSubmission struct {
	// Tenant names the submitting tenant for fair-share accounting;
	// empty means the dispatcher's default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders jobs under the priority admission policy (higher
	// first). Other policies ignore it.
	Priority int `json:"priority,omitempty"`
	// Spec is the per-job scheduler spec, opaque to the wire layer: the
	// dispatcher hands it to its scheduler factory (the root package's
	// Spec JSON, e.g. {"name":"PN","generations":120}). Empty selects
	// the dispatcher's default scheduler.
	Spec json.RawMessage `json:"spec,omitempty"`
	// RetryBudget bounds how many task reissues (worker losses) the job
	// survives before it is failed. Nil selects the dispatcher default;
	// zero means any lost task fails the job.
	RetryBudget *int `json:"retry_budget,omitempty"`
	// Tasks is the workload. IDs must be unique within the job.
	Tasks []wireTask `json:"tasks"`
}

// JobInfo is one job's externally visible state, returned by
// job_submit, job_status and job_cancel replies.
type JobInfo struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority,omitempty"`
	// State is one of the dispatcher's job states: queued, running,
	// done, failed, cancelled.
	State string `json:"state"`
	// Scheduler is the Name() of the job's scheduler.
	Scheduler string `json:"scheduler,omitempty"`
	// Tasks and Completed count the job's workload and its finished
	// portion.
	Tasks     int `json:"tasks"`
	Completed int `json:"completed"`
	// Retries is the number of task reissues consumed so far;
	// RetryBudget is the job's limit.
	Retries     int `json:"retries,omitempty"`
	RetryBudget int `json:"retry_budget"`
	// Workers is the number of workers currently leased to the job.
	Workers int `json:"workers,omitempty"`
	// Position is the job's 1-based place in the admission queue while
	// State is queued; zero otherwise.
	Position int `json:"position,omitempty"`
	// Error explains a failed state ("retry budget exhausted: …").
	Error string `json:"error,omitempty"`
	// Timestamps are seconds since the dispatcher started, on the same
	// clock as event frames. StartedAt and FinishedAt are zero until
	// the job reaches the corresponding state.
	SubmittedAt float64 `json:"submitted_at"`
	StartedAt   float64 `json:"started_at,omitempty"`
	FinishedAt  float64 `json:"finished_at,omitempty"`
}

// JobResult is the payload of a job_result reply: the outcome of a
// terminal job, retained by the dispatcher until evicted by its
// retention cap.
type JobResult struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// State is the terminal state the job reached: done, failed or
	// cancelled. Failed and cancelled results report the partial
	// completion tallies.
	State string `json:"state"`
	// Tasks and Completed count the workload and its finished portion.
	Tasks     int `json:"tasks"`
	Completed int `json:"completed"`
	Retries   int `json:"retries,omitempty"`
	// Error explains a failed state.
	Error string `json:"error,omitempty"`
	// Elapsed is the sum of simulated task processing seconds across
	// completed tasks; Duration is the job's start→finish wall time.
	Elapsed  float64 `json:"elapsed"`
	Duration float64 `json:"duration"`
	// Workers breaks completion down per worker, sorted by name.
	Workers []JobWorkerResult `json:"workers,omitempty"`
}

// JobWorkerResult is one worker's share of a job's completed work.
type JobWorkerResult struct {
	Name  string  `json:"name"`
	Tasks int     `json:"tasks"`
	Work  float64 `json:"work"` // MFLOPs completed
}

// JobCounts is the dispatcher block of a stats Snapshot (1.3): how
// many jobs are in each state, cumulatively for the terminal states.
type JobCounts struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// OnJobQueued implements observe.Observer (protocol 1.3).
func (b *Broadcaster) OnJobQueued(e observe.JobQueued) {
	b.publish(eventFrame{Kind: kindJobQueued, Queued: &e})
}

// OnJobStarted implements observe.Observer (protocol 1.3).
func (b *Broadcaster) OnJobStarted(e observe.JobStarted) {
	b.publish(eventFrame{Kind: kindJobStarted, Started: &e})
}

// OnJobDone implements observe.Observer (protocol 1.3).
func (b *Broadcaster) OnJobDone(e observe.JobDone) {
	b.publish(eventFrame{Kind: kindJobDone, Finished: &e})
}
