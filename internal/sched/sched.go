// Package sched defines the scheduler interfaces of the simulation and
// implements the six comparison heuristics of the paper's §4.1: the
// immediate-mode earliest-first (EF), lightest-loaded (LL) and
// round-robin (RR) schedulers, and the batch-mode max-min (MX) and
// min-min (MM) schedulers. (The sixth comparator, Zomaya & Teh's GA
// scheduler ZO, shares machinery with the paper's own scheduler and
// lives in internal/core.)
//
// Immediate-mode schedulers consider a single task at a time on a FCFS
// basis; batch-mode schedulers consider a whole batch at once. All
// schedulers see the system only through the State interface: smoothed
// observed rates, outstanding per-processor load, and smoothed
// communication-cost estimates — never the simulator's hidden truth.
package sched

import (
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// State is a scheduler's view of the distributed system at decision
// time. Implementations are provided by the simulator (internal/sim)
// and by the live distributed runtime (internal/dist).
type State interface {
	// M returns the number of processors.
	M() int
	// Rate returns the believed execution rate of processor j: its
	// Linpack-style rating smoothed with observed per-task throughput.
	Rate(j int) units.Rate
	// PendingLoad returns Lⱼ — work assigned to processor j's queue
	// (including the task it is currently processing) but not yet
	// completed, in MFLOPs.
	PendingLoad(j int) units.MFlops
	// CommEstimate returns the smoothed per-task communication cost
	// Γc for the link to processor j (paper §3.2/§3.6).
	CommEstimate(j int) units.Seconds
	// Now returns the current simulated time.
	Now() units.Seconds
	// TimeUntilFirstIdle estimates when the first processor with queued
	// work runs dry: min over j of PendingLoad(j)/Rate(j). It returns 0
	// if some processor is already idle with an empty queue while work
	// exists elsewhere, and +Inf when no processor has any work (e.g.
	// before the first batch), in which case the scheduler is free to
	// take its time.
	TimeUntilFirstIdle() units.Seconds
}

// Scheduler is the common interface: every scheduler has a short name
// used in result tables (EF, LL, RR, MM, MX, ZO, PN).
type Scheduler interface {
	Name() string
}

// Immediate is a scheduler that maps one task at a time, FCFS.
type Immediate interface {
	Scheduler
	// Assign returns the processor index for the task.
	Assign(t task.Task, s State) int
}

// Assignment is a batch scheduling decision: Assignment[j] is the
// ordered list of tasks appended to processor j's queue.
type Assignment [][]task.Task

// NewAssignment returns an empty assignment for m processors.
func NewAssignment(m int) Assignment { return make(Assignment, m) }

// Tasks returns the total number of tasks in the assignment.
func (a Assignment) Tasks() int {
	n := 0
	for _, q := range a {
		n += len(q)
	}
	return n
}

// Batch is a scheduler that maps a batch of tasks at once. The returned
// cost is the simulated computation time the scheduler consumed — the
// dedicated scheduling processor is busy for that long (GA schedulers
// report their modelled Θ(H²) cost; simple heuristics report ~0).
type Batch interface {
	Scheduler
	ScheduleBatch(batch []task.Task, s State) (Assignment, units.Seconds)
}

// BatchSizer lets a batch scheduler choose how many tasks to draw from
// the unscheduled queue at the next invocation. queued is the current
// queue length. Schedulers that do not implement BatchSizer get
// DefaultBatchSize.
type BatchSizer interface {
	NextBatchSize(queued int, s State) int
}

// DefaultBatchSize is used for batch schedulers that do not size their
// own batches; it matches the paper's fixed batch of 200 (§4.3).
const DefaultBatchSize = 200

// FixedBatch wraps a batch scheduler with a constant batch size.
type FixedBatch struct {
	Batch
	Size int
}

// NextBatchSize implements BatchSizer.
func (f FixedBatch) NextBatchSize(queued int, _ State) int {
	n := f.Size
	if n <= 0 {
		n = DefaultBatchSize
	}
	if n > queued {
		n = queued
	}
	return n
}

// earliestFinisher returns the processor on which a task of the given
// size would complete earliest, considering existing loads: argmin_j
// (loads[j] + size) / rates[j], over the snapshot a batch heuristic took
// of the state (rates has at least len(loads) entries). Processors with
// zero believed rate are skipped unless all are stopped, in which case
// index 0 is returned (the task must be queued somewhere). Ties resolve
// to the lowest index, keeping results deterministic.
func earliestFinisher(size units.MFlops, loads []units.MFlops, rates []units.Rate) int {
	rates = rates[:len(loads)]
	bestJ := 0
	bestFinish := units.Inf()
	for j, l := range loads {
		if finish := (l + size).TimeOn(rates[j]); finish < bestFinish {
			bestFinish = finish
			bestJ = j
		}
	}
	return bestJ
}

// snapshot copies the current pending loads and believed rates out of
// the state, so a batch heuristic reads each once per batch and can
// simulate its own incremental assignments on the loads.
func snapshot(s State) ([]units.MFlops, []units.Rate) {
	m := s.M()
	loads := make([]units.MFlops, m)
	rates := make([]units.Rate, m)
	for j := range loads {
		loads[j] = s.PendingLoad(j)
		rates[j] = s.Rate(j)
	}
	return loads, rates
}

// EF is the immediate-mode earliest-first scheduler: each task goes to
// the processor that will finish it earliest given current loads and
// rates. Worst-case Θ(M) per task.
type EF struct{}

// Name implements Scheduler.
func (EF) Name() string { return "EF" }

// Assign implements Immediate. It reads the state in place: one task
// needs each load and rate once.
func (EF) Assign(t task.Task, s State) int {
	bestJ := 0
	bestFinish := units.Inf()
	for j := 0; j < s.M(); j++ {
		if finish := (s.PendingLoad(j) + t.Size).TimeOn(s.Rate(j)); finish < bestFinish {
			bestFinish = finish
			bestJ = j
		}
	}
	return bestJ
}

// LL is the immediate-mode lightest-loaded scheduler: each task goes to
// the processor with the smallest outstanding load in MFLOPs. The size
// of the task itself is not considered. Worst-case Θ(M) per task.
type LL struct{}

// Name implements Scheduler.
func (LL) Name() string { return "LL" }

// Assign implements Immediate.
func (LL) Assign(t task.Task, s State) int {
	bestJ := 0
	bestLoad := s.PendingLoad(0)
	for j := 1; j < s.M(); j++ {
		if l := s.PendingLoad(j); l < bestLoad {
			bestLoad = l
			bestJ = j
		}
	}
	return bestJ
}

// RR is the immediate-mode round-robin scheduler: tasks are dealt to
// processors cyclically with no load or task information. Θ(1) per task.
type RR struct {
	next int
}

// Name implements Scheduler.
func (*RR) Name() string { return "RR" }

// Assign implements Immediate.
func (r *RR) Assign(_ task.Task, s State) int {
	j := r.next % s.M()
	r.next = (r.next + 1) % s.M()
	return j
}

// greedyBatch sorts a copy of the batch with sortTasks and assigns each
// task in order to its earliest-finishing processor, accumulating loads
// locally. Loads and rates are read from s once, before the first task.
// The processor queues share one backing array, each capped at its own
// length; a processor given no task keeps a nil queue.
func greedyBatch(batch []task.Task, s State, sortTasks func([]task.Task)) Assignment {
	sorted := append([]task.Task(nil), batch...)
	sortTasks(sorted)
	loads, rates := snapshot(s)
	procs := make([]int32, len(sorted))
	counts := make([]int, len(loads))
	for i, t := range sorted {
		j := earliestFinisher(t.Size, loads, rates)
		procs[i] = int32(j)
		counts[j]++
		loads[j] += t.Size
	}
	out := NewAssignment(len(loads))
	backing := make([]task.Task, len(sorted))
	off := 0
	for j, c := range counts {
		if c > 0 {
			out[j] = backing[off : off : off+c]
			off += c
		}
	}
	for i, t := range sorted {
		out[procs[i]] = append(out[procs[i]], t)
	}
	return out
}

// MX is the batch-mode max-min scheduler: the batch is sorted by task
// size descending and each task is allocated to the processor that
// finishes it first, so the largest tasks are placed as early as
// possible with small tasks filling the gaps. Θ(max(M, n·log n)).
type MX struct{}

// Name implements Scheduler.
func (MX) Name() string { return "MX" }

// ScheduleBatch implements Batch. The heuristic's own computation is
// negligible next to GA scheduling, so the reported cost is zero.
func (MX) ScheduleBatch(batch []task.Task, s State) (Assignment, units.Seconds) {
	return greedyBatch(batch, s, task.SortBySizeDescending), 0
}

// MM is the batch-mode min-min scheduler: like MX but sorted ascending,
// so small tasks are placed first.
type MM struct{}

// Name implements Scheduler.
func (MM) Name() string { return "MM" }

// ScheduleBatch implements Batch.
func (MM) ScheduleBatch(batch []task.Task, s State) (Assignment, units.Seconds) {
	return greedyBatch(batch, s, task.SortBySizeAscending), 0
}
