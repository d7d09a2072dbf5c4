package pnsched

import (
	"io"

	"pnsched/internal/cluster"
	"pnsched/internal/dist"
	"pnsched/internal/linpack"
	"pnsched/internal/network"
	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/sim"
	"pnsched/internal/task"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// The library vocabulary, re-exported as aliases so external importers
// can use every public API without naming internal packages. The
// underlying types live in internal/ and remain the single definition;
// the aliases are identical types, not wrappers.
type (
	// Task is one unit of work: an ID, a size in MFLOPs, and an
	// arrival time. Its JSON form is the wire form, {"id","size"}:
	// encoding/json drops Arrival. A task set that must keep its
	// arrival times is pnworkload's format, read with ReadTasks.
	Task = task.Task
	// TaskID identifies a task.
	TaskID = task.ID

	// Scheduler is the common scheduler interface: every scheduler
	// has a short name used in result tables.
	Scheduler = sched.Scheduler
	// ImmediateScheduler maps one task at a time, FCFS.
	ImmediateScheduler = sched.Immediate
	// BatchScheduler maps a whole batch of tasks at once and reports
	// the modelled compute time the decision consumed.
	BatchScheduler = sched.Batch
	// BatchSizer lets a batch scheduler size its own batches (§3.7).
	BatchSizer = sched.BatchSizer
	// State is a scheduler's view of the system at decision time.
	State = sched.State
	// Assignment is a batch decision: Assignment[j] is the ordered
	// task list appended to processor j's queue.
	Assignment = sched.Assignment

	// Cluster is a set of (possibly availability-varying)
	// heterogeneous processors.
	Cluster = cluster.Cluster
	// Network models per-link communication costs.
	Network = network.Network
	// NetworkConfig parametrises a Network.
	NetworkConfig = network.Config

	// RNG is the deterministic random source every constructor in the
	// library takes; identical seeds give identical runs.
	RNG = rng.RNG

	// Seconds, MFlops and Rate are the unit types all quantities use.
	Seconds = units.Seconds
	MFlops  = units.MFlops
	Rate    = units.Rate

	// Result reports a finished simulation run.
	Result = sim.Result
	// Timeline collects per-processor activity segments for post-run
	// analysis (utilisation, Gantt rendering).
	Timeline = sim.Timeline

	// SizeDistribution draws task sizes; Uniform, Normal, Poisson and
	// Constant implement it.
	SizeDistribution = workload.SizeDistribution
	Uniform          = workload.Uniform
	Normal           = workload.Normal
	Poisson          = workload.Poisson
	Constant         = workload.Constant

	// WorkerConfig configures one live worker processor for RunWorker:
	// its name, claimed rate, time scale, and optional Execute hook
	// that replaces the simulated sleep with real work.
	WorkerConfig = dist.WorkerConfig
	// Watcher is a live subscription to a server's event stream,
	// created with Watch.
	Watcher = dist.Watcher
	// ServerSnapshot is a live server's operational snapshot, returned
	// by Server.Snapshot in-process and FetchStats over the wire.
	ServerSnapshot = dist.Snapshot
	// WorkerSnapshot is one connected worker's slice of a
	// ServerSnapshot.
	WorkerSnapshot = dist.WorkerSnapshot
	// WatcherSnapshot is one event-stream subscriber's slice of a
	// ServerSnapshot: current queue depth and cumulative drops.
	WatcherSnapshot = dist.WatcherSnapshot
	// LatencySummary holds dispatch-latency quantiles over a server's
	// recent round trips.
	LatencySummary = dist.LatencySummary
	// DecisionTrace is the full record of one batch-scheduling
	// decision — the generation-best makespan curve, the §3.4 budget
	// ledger, and wall time — returned by Server.Traces in-process and
	// FetchTraces over the wire (protocol 1.2).
	DecisionTrace = dist.Trace
	// TracePoint is one improvement on a DecisionTrace's
	// generation-best makespan curve.
	TracePoint = dist.TracePoint

	// Observer receives the typed events of a scheduling run; see the
	// internal/observe package documentation for the event contract.
	Observer = observe.Observer
	// ObserverFuncs adapts plain functions to Observer; nil fields
	// ignore their event.
	ObserverFuncs = observe.Funcs
	// The observer event payloads.
	BatchDecision     = observe.BatchDecision
	GenerationBest    = observe.GenerationBest
	MigrationEvent    = observe.Migration
	DispatchEvent     = observe.Dispatch
	BudgetStopEvent   = observe.BudgetStop
	EvolveDoneEvent   = observe.EvolveDone
	WorkerJoinedEvent = observe.WorkerJoined
	WorkerLeftEvent   = observe.WorkerLeft
)

// ErrServerClosed is returned by Server.Wait when the server is closed
// before all submitted tasks complete.
var ErrServerClosed = dist.ErrServerClosed

// DefaultBatchSize is the paper's batch size (200), used wherever a
// batch scheduler does not size its own batches.
const DefaultBatchSize = sched.DefaultBatchSize

// NewRNG returns a deterministic random source. Use Stream to derive
// independent sub-streams for separate concerns.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// LinpackRate measures this machine's execution rate in Mflop/s by
// solving an n×n Linpack system — how pnworker self-rates before
// registering with a server.
func LinpackRate(n int, seed uint64) (Rate, error) { return linpack.Rate(n, seed) }

// ReadTasks loads a task set from pnworkload's JSON format.
func ReadTasks(r io.Reader) ([]Task, error) { return workload.ReadJSON(r) }

// MultiObserver combines observers into one that delivers every event
// to each in order; nil entries are dropped.
func MultiObserver(obs ...Observer) Observer { return observe.Multi(obs...) }

// NewHeterogeneousCluster draws n processors with rates uniform in
// [lo, hi] — the paper's §4.2 cluster shape.
func NewHeterogeneousCluster(n int, lo, hi Rate, r *RNG) *Cluster {
	return cluster.NewHeterogeneous(n, lo, hi, r)
}

// NewCluster builds a cluster from explicit processor rates.
func NewCluster(rates []Rate) *Cluster { return cluster.New(rates) }

// NewNetwork builds the per-link communication model for m processors.
func NewNetwork(m int, cfg NetworkConfig, r *RNG) *Network {
	return network.New(m, cfg, r)
}

// GenerateTasks draws n task sizes from the distribution, all arriving
// at t=0.
func GenerateTasks(n int, sizes SizeDistribution, r *RNG) []Task {
	return workload.Generate(workload.Spec{N: n, Sizes: sizes}, r)
}
