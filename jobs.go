package pnsched

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/jobs"
	"pnsched/internal/observe"
)

// The job-service vocabulary, re-exported like alias.go's: the types
// live in internal/ and these aliases are identical types.
type (
	// JobInfo is one job's externally visible state, as returned by
	// submit/status/cancel and listed by JobQueue.
	JobInfo = dist.JobInfo
	// JobResult is a terminal job's outcome: counters, timings, and
	// the per-worker completion tallies.
	JobResult = dist.JobResult
	// JobWorkerResult is one worker's share of a JobResult.
	JobWorkerResult = dist.JobWorkerResult
	// JobCounts breaks a dispatcher's jobs down by state in a stats
	// snapshot.
	JobCounts = dist.JobCounts
	// The job lifecycle event payloads.
	JobQueuedEvent  = observe.JobQueued
	JobStartedEvent = observe.JobStarted
	JobDoneEvent    = observe.JobDone

	// AdmissionPolicy selects how a dispatcher orders queued jobs.
	AdmissionPolicy = jobs.Policy
)

// The admission policies a job dispatcher can run.
const (
	// AdmissionFIFO admits jobs in submission order.
	AdmissionFIFO = jobs.PolicyFIFO
	// AdmissionPriority admits the highest-priority job first.
	AdmissionPriority = jobs.PolicyPriority
	// AdmissionFairShare admits by weighted fair share across tenants.
	AdmissionFairShare = jobs.PolicyFair
)

// Job states as reported in JobInfo.State.
const (
	JobQueued    = jobs.StateQueued
	JobRunning   = jobs.StateRunning
	JobDone      = jobs.StateDone
	JobFailed    = jobs.StateFailed
	JobCancelled = jobs.StateCancelled
)

// JobRequest describes one job to submit: the workload, the scheduler
// spec it should run under, and its multi-tenant accounting identity.
type JobRequest struct {
	// Tenant is the fair-share accounting identity; empty selects
	// "default".
	Tenant string
	// Priority orders jobs under AdmissionPriority (higher first);
	// ignored by the other policies.
	Priority int
	// Scheduler is the per-job scheduler spec — the same vocabulary Run
	// and Serve take. The zero Spec selects the paper's PN scheduler
	// with its defaults.
	Scheduler Spec
	// Tasks is the workload; task IDs must be unique within the job.
	Tasks []Task
	// RetryBudget caps how many lost-worker reissues the job survives
	// before failing. Nil selects the dispatcher's default; zero means
	// any lost task fails the job.
	RetryBudget *int
}

// JobsOption adjusts one ServeJobs invocation: any ServeOption — the
// settings the dispatcher's worker pool shares with Serve's — or one of
// the job-only options below, which Serve does not accept.
type JobsOption interface{ applyJobs(*jobsOpts) }

// jobsOnly is a JobsOption that is not a ServeOption, so handing one to
// Serve does not compile.
type jobsOnly func(*jobsOpts)

func (f jobsOnly) applyJobs(o *jobsOpts) { f(o) }

type jobsOpts struct {
	commonOpts
	policy    AdmissionPolicy
	weights   map[string]float64
	maxActive int
	retry     int
	journal   string
}

// WithAdmissionPolicy selects the admission policy; the default is
// AdmissionFIFO.
func WithAdmissionPolicy(p AdmissionPolicy) JobsOption {
	return jobsOnly(func(o *jobsOpts) { o.policy = p })
}

// WithTenantWeight sets one tenant's fair-share weight (must be
// positive; unconfigured tenants weigh 1). Only AdmissionFairShare
// reads the weights.
func WithTenantWeight(tenant string, weight float64) JobsOption {
	return jobsOnly(func(o *jobsOpts) {
		if o.weights == nil {
			o.weights = map[string]float64{}
		}
		o.weights[tenant] = weight
	})
}

// WithMaxActiveJobs bounds how many jobs run concurrently; 0 selects
// the default of 1, which keeps admission ordering exact.
func WithMaxActiveJobs(n int) JobsOption { return jobsOnly(func(o *jobsOpts) { o.maxActive = n }) }

// WithJobRetryBudget sets the default per-job reissue allowance for
// submissions that carry none; 0 selects the package default (64).
func WithJobRetryBudget(n int) JobsOption { return jobsOnly(func(o *jobsOpts) { o.retry = n }) }

// WithJobsJournal makes the dispatcher's job state durable: every
// state transition is appended to a journal under dir before the
// operation is acknowledged, and a restart pointed at the same dir
// replays it — queued jobs re-enter the queue with their tenant
// fair-share standing intact, jobs interrupted mid-run are re-queued
// with one retry spent, terminal jobs stay queryable, and job IDs
// keep counting where they left off. The default is no journal
// (state is lost on restart). Should a journal write fail, the service
// keeps running without durability and /healthz (WithAdminAddr) turns
// 503. See docs/job-journal.md.
func WithJobsJournal(dir string) JobsOption { return jobsOnly(func(o *jobsOpts) { o.journal = dir }) }

// WithJobsAdminAddr is WithAdminAddr under the name it had when
// ServeJobs took its own copy of each shared option; new code passes
// WithAdminAddr to ServeJobs directly.
func WithJobsAdminAddr(addr string) JobsOption { return WithAdminAddr(addr) }

// WithJobsObserver is WithServeObserver under its former ServeJobs-only
// name; new code passes WithServeObserver to ServeJobs directly.
func WithJobsObserver(obs Observer) JobsOption { return WithServeObserver(obs) }

// JobService is a live multi-tenant job dispatcher started with
// ServeJobs. Workers connect exactly as they do to a Server (RunWorker
// or the pnworker binary); clients submit jobs in-process through the
// methods here or over the wire through SubmitJob and friends (the
// pnjobs binary). All methods are safe for concurrent use.
type JobService struct{ service }

// ServeJobs starts the multi-tenant job dispatcher: a persistent
// service that owns a queue of jobs — each a workload with its own
// scheduler Spec, tenant and priority — and schedules them over the
// shared worker pool under the configured admission policy, leasing
// workers to the active job and reclaiming them when it ends.
//
// Every job's scheduler is constructed through the same Spec registry
// Run and Serve use, at submission time, so a bad spec is rejected
// up front. Worker, batch, dispatch, and job lifecycle events reach
// the WithServeObserver observer and — as versioned event frames —
// every remote Watch client.
//
// Cancelling ctx closes the service.
func ServeJobs(ctx context.Context, opts ...JobsOption) (*JobService, error) {
	jo := jobsOpts{commonOpts: commonOpts{addr: "127.0.0.1:0"}}
	for _, o := range opts {
		o.applyJobs(&jo)
	}

	s := &JobService{}
	pool, full := s.wire(&jo.commonOpts, nil, nil)
	d, err := jobs.New(jobs.Config{
		NewScheduler: func(raw json.RawMessage) (BatchScheduler, error) {
			spec := Spec{}
			if len(raw) > 0 {
				if err := json.Unmarshal(raw, &spec); err != nil {
					return nil, fmt.Errorf("pnsched: job spec: %w", err)
				}
			}
			if spec.Name == "" {
				spec.Name = "PN"
			}
			return newBatch(spec.With(WithObserver(full)), "jobs need")
		},
		Policy:      jo.policy,
		Weights:     jo.weights,
		MaxActive:   jo.maxActive,
		RetryBudget: jo.retry,
		JournalDir:  jo.journal,
		PoolConfig:  pool,
	})
	if err != nil {
		return nil, err
	}
	s.d = d
	if err := s.start(ctx, &jo.commonOpts); err != nil {
		return nil, err
	}
	return s, nil
}

// Submit validates and enqueues one job, returning its accepted state
// (ID assigned, queued or already running).
func (s *JobService) Submit(req JobRequest) (JobInfo, error) {
	sub, err := req.submission()
	if err != nil {
		return JobInfo{}, err
	}
	return s.d.Submit(sub)
}

// submission lowers the request to its wire form.
func (req JobRequest) submission() (dist.JobSubmission, error) {
	spec, err := json.Marshal(req.Scheduler)
	if err != nil {
		return dist.JobSubmission{}, fmt.Errorf("pnsched: job spec: %w", err)
	}
	return dist.JobSubmission{
		Tenant:      req.Tenant,
		Priority:    req.Priority,
		Spec:        spec,
		RetryBudget: req.RetryBudget,
		Tasks:       dist.TasksToWire(req.Tasks),
	}, nil
}

// Status returns one job's current state.
func (s *JobService) Status(id string) (JobInfo, error) { return s.d.Status(id) }

// Queue returns every retained job — queued, running and terminal —
// in submission order.
func (s *JobService) Queue() []JobInfo { return s.d.Queue() }

// Cancel cancels a queued or running job; cancelling a running job
// releases its leased workers immediately.
func (s *JobService) Cancel(id string) (JobInfo, error) { return s.d.Cancel(id) }

// Result returns a terminal job's outcome.
func (s *JobService) Result(id string) (JobResult, error) { return s.d.Result(id) }

// WaitJob blocks until the job reaches a terminal state, the timeout
// elapses (non-positive waits indefinitely), or the service closes.
func (s *JobService) WaitJob(id string, timeout time.Duration) (JobInfo, error) {
	return s.d.Wait(id, timeout)
}

// SubmitJob submits one job to a dispatcher at addr over the wire
// (protocol 1.3) — the client side of JobService.Submit, used by
// `pnjobs submit`.
func SubmitJob(ctx context.Context, addr string, req JobRequest) (JobInfo, error) {
	sub, err := req.submission()
	if err != nil {
		return JobInfo{}, err
	}
	return dist.SubmitJob(ctx, addr, sub)
}

// JobStatus fetches one job's current state from a dispatcher at addr
// — the client side of JobService.Status, used by `pnjobs status`.
func JobStatus(ctx context.Context, addr, id string) (JobInfo, error) {
	return dist.FetchJobStatus(ctx, addr, id)
}

// JobQueue fetches every job a dispatcher retains, in submission order
// — used by `pnjobs queue`.
func JobQueue(ctx context.Context, addr string) ([]JobInfo, error) {
	return dist.FetchJobQueue(ctx, addr)
}

// CancelJob cancels one job over the wire — the client side of
// JobService.Cancel, used by `pnjobs cancel`.
func CancelJob(ctx context.Context, addr, id string) (JobInfo, error) {
	return dist.CancelJob(ctx, addr, id)
}

// FetchResult fetches a terminal job's outcome over the wire — the
// client side of JobService.Result, used by `pnjobs result`.
func FetchResult(ctx context.Context, addr, id string) (JobResult, error) {
	return dist.FetchJobResult(ctx, addr, id)
}
