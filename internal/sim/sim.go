// Package sim is the discrete-event simulator of the distributed system
// described in §3 of the paper: heterogeneous processors pull tasks from
// per-processor queues held at a dedicated scheduling processor, paying
// a sampled communication cost per transfer, processing at a rate that
// may vary over time, and reporting completions back.
//
// The simulator measures the paper's two metrics (§4): makespan — "the
// total execution time of a schedule" — and efficiency — "the percentage
// of the time that processors actually spend processing rather than
// communicating or idling".
//
// Scheduling decisions are made strictly through the sched.State view:
// smoothed observed rates, outstanding loads and smoothed communication
// estimates. The simulator's hidden truth (true link means, true
// availability) is never exposed to schedulers.
//
// Arrivals never enter the event queue: a cursor walks the tasks in
// (Arrival, index) order, and the next event is the earlier of the next
// arrival and the queue's top, an arrival winning a tie. That is the
// order a queue holding every arrival, pushed before anything else,
// would pop, while the queue itself holds only O(M) events: at most
// one ready, completion or reissue per processor, one invocation and
// one assignment.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pnsched/internal/cluster"
	"pnsched/internal/eventq"
	"pnsched/internal/network"
	"pnsched/internal/observe"
	"pnsched/internal/sched"
	"pnsched/internal/smoothing"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// DefaultRateNu is the smoothing factor applied to observed
// per-task processing rates.
const DefaultRateNu = 0.3

// TraceKind labels a trace event.
type TraceKind string

// Trace event kinds, in rough lifecycle order.
const (
	TraceArrival  TraceKind = "arrival"
	TraceInvoke   TraceKind = "invoke"
	TraceAssign   TraceKind = "assign"
	TraceStart    TraceKind = "start"
	TraceComplete TraceKind = "complete"
	TraceIdle     TraceKind = "idle"
	TraceReissue  TraceKind = "reissue"
)

// TraceEvent is delivered to Config.Trace observers.
type TraceEvent struct {
	Time units.Seconds
	Kind TraceKind
	Proc int     // -1 when not processor-specific
	Task task.ID // task.None when not task-specific
}

// Config describes one simulation run.
type Config struct {
	Cluster   *cluster.Cluster
	Net       *network.Network
	Tasks     []task.Task
	Scheduler sched.Scheduler // must implement sched.Immediate or sched.Batch

	// BatchSizer overrides batch sizing. If nil and the scheduler
	// implements sched.BatchSizer, the scheduler sizes its own batches;
	// otherwise batches default to sched.DefaultBatchSize.
	BatchSizer sched.BatchSizer

	// ReissueTimeout, when positive, enables failure recovery: a task
	// whose processor can never finish it (permanent outage) is pulled
	// back after this many simulated seconds, the processor is marked
	// dead (believed rate 0), and the task — plus everything queued
	// behind it — is rescheduled.
	ReissueTimeout units.Seconds

	// MaxTime aborts the simulation at this simulated instant
	// (default: no limit). Aborted runs report Completed < len(Tasks).
	MaxTime units.Seconds

	// Trace, when non-nil, observes every simulation event.
	Trace func(TraceEvent)

	// Observer, when non-nil, receives the typed public-API events the
	// simulator emits: OnBatchDecided after every committed batch
	// decision and OnDispatch when a task starts its transfer to a
	// processor. GA-level events (generation best, migration, budget
	// stop) come from the scheduler itself via core.Config.Observer —
	// point both at the same Observer to see the full stream.
	Observer observe.Observer

	// Interrupt, when non-nil, is polled before every event; returning
	// true aborts the run at the current simulated instant (Completed
	// then reports fewer than len(Tasks)). The public pnsched.Run API
	// uses it to honour context cancellation.
	Interrupt func() bool

	// Timeline, when non-nil, is filled with per-processor comm and
	// busy segments for post-run analysis (utilisation, Gantt).
	Timeline *Timeline
}

// ProcStat summarises one processor's activity.
type ProcStat struct {
	Busy      units.Seconds // time spent processing
	Comm      units.Seconds // time spent in task transfers
	Processed int           // tasks completed
	Dead      bool          // marked failed by reissue recovery
}

// Result reports a finished simulation.
type Result struct {
	Makespan      units.Seconds // completion time of the last task
	Efficiency    float64       // Σ busy / (M × makespan)
	Completed     int
	Reissued      int // tasks recovered from dead processors
	Procs         []ProcStat
	SchedulerBusy units.Seconds // total simulated scheduler compute time
	Invocations   int           // batch-scheduler invocations
}

// Event payloads. Each is at most one word of plain data, so putting
// one in an eventq.Item allocates nothing for processor indices below
// 256; what a completion or an assignment needs is held by the
// simulator.
type (
	evReady    struct{ proc int }
	evInvoke   struct{}
	evAssign   struct{} // delivers simulator.decided
	evComplete struct{ proc int }
	evReissue  struct{ proc int }
)

// running is the task a processor holds: on the wire, being processed,
// or stranded by an outage.
type running struct {
	t             task.Task
	start, finish units.Seconds
	held          bool
}

type simulator struct {
	cfg   Config
	m     int
	queue eventq.Queue
	now   units.Seconds

	// order lists cfg.Tasks indices in (Arrival, index) order; nil when
	// cfg.Tasks is already in that order. arrived counts the arrivals
	// taken.
	order   []int32
	arrived int

	unscheduled *task.Queue
	procQueues  []*task.Queue
	pending     []units.MFlops
	inflight    []running
	idle        []bool
	dead        []bool
	rateEst     []*smoothing.Smoother

	schedBusy     bool
	invokePending bool
	decided       sched.Assignment // the batch the pending evAssign delivers
	immediate     sched.Immediate
	batch         sched.Batch
	sizer         sched.BatchSizer

	stats       []ProcStat
	completed   int
	reissued    int
	makespan    units.Seconds
	schedTime   units.Seconds
	invocations int
}

// view adapts the simulator to sched.State.
type view struct{ s *simulator }

func (v view) M() int { return v.s.m }

func (v view) Rate(j int) units.Rate {
	if v.s.dead[j] {
		return 0
	}
	return units.Rate(v.s.rateEst[j].ValueOr(float64(v.s.cfg.Cluster.Procs[j].BaseRate)))
}

func (v view) PendingLoad(j int) units.MFlops { return v.s.pending[j] }

func (v view) CommEstimate(j int) units.Seconds {
	return v.s.cfg.Net.EstimatedCost(j)
}

func (v view) Now() units.Seconds { return v.s.now }

func (v view) TimeUntilFirstIdle() units.Seconds {
	anyWork := false
	best := units.Inf()
	for j := 0; j < v.s.m; j++ {
		if v.s.dead[j] {
			continue
		}
		if v.s.pending[j] > 0 {
			anyWork = true
			if t := v.s.pending[j].TimeOn(v.Rate(j)); t < best {
				best = t
			}
		}
	}
	if !anyWork {
		return units.Inf()
	}
	// A live processor already starving makes the budget zero.
	for j := 0; j < v.s.m; j++ {
		if !v.s.dead[j] && v.s.idle[j] && v.s.procQueues[j].Empty() {
			return 0
		}
	}
	return best
}

// Run executes the simulation to completion (or MaxTime) and returns the
// metrics. It panics on configuration errors: a nil cluster or network,
// mismatched link counts, a task arriving at NaN, or a scheduler
// implementing neither mode.
//
// Each step takes the earlier of the next arrival (from a cursor over
// the tasks in arrival order, ties in slice order) and the top of the
// event queue; an arrival wins a tie with a queued event.
func Run(cfg Config) Result {
	s := newSimulator(cfg)
	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		maxTime = units.Inf()
	}
	for s.completed < len(cfg.Tasks) {
		if cfg.Interrupt != nil && cfg.Interrupt() {
			break
		}
		if !s.step(maxTime) {
			break
		}
	}
	return s.result()
}

// newSimulator validates cfg and returns a simulator at time 0 with
// nothing yet arrived.
func newSimulator(cfg Config) *simulator {
	if cfg.Cluster == nil || cfg.Cluster.M() == 0 {
		panic("sim: missing cluster")
	}
	if cfg.Net == nil {
		panic("sim: missing network")
	}
	if cfg.Net.M() != cfg.Cluster.M() {
		panic(fmt.Sprintf("sim: %d links for %d processors", cfg.Net.M(), cfg.Cluster.M()))
	}
	if cfg.Timeline != nil {
		cfg.Timeline.Procs = make([][]Segment, cfg.Cluster.M())
		cfg.Timeline.Makespan = 0
	}

	s := &simulator{
		cfg:         cfg,
		m:           cfg.Cluster.M(),
		unscheduled: task.NewQueue(len(cfg.Tasks)),
	}
	s.procQueues = make([]*task.Queue, s.m)
	s.pending = make([]units.MFlops, s.m)
	s.inflight = make([]running, s.m)
	s.idle = make([]bool, s.m)
	s.dead = make([]bool, s.m)
	s.rateEst = make([]*smoothing.Smoother, s.m)
	s.stats = make([]ProcStat, s.m)
	for j := 0; j < s.m; j++ {
		s.procQueues[j] = task.NewQueue(8)
		s.idle[j] = true
		s.rateEst[j] = smoothing.New(DefaultRateNu)
	}

	switch sc := cfg.Scheduler.(type) {
	case sched.Immediate:
		s.immediate = sc
	case sched.Batch:
		s.batch = sc
	default:
		panic(fmt.Sprintf("sim: scheduler %T implements neither Immediate nor Batch", cfg.Scheduler))
	}
	if s.batch != nil {
		s.sizer = cfg.BatchSizer
		if s.sizer == nil {
			if bs, ok := cfg.Scheduler.(sched.BatchSizer); ok {
				s.sizer = bs
			} else {
				s.sizer = sched.FixedBatch{Batch: s.batch, Size: sched.DefaultBatchSize}
			}
		}
	}

	// A NaN arrival has no place in the order: the cursor would never
	// take it.
	for _, t := range cfg.Tasks {
		if math.IsNaN(float64(t.Arrival)) {
			panic(fmt.Sprintf("sim: task %d arrives at NaN", t.ID))
		}
	}
	byArrival := func(a, b task.Task) int { return cmp.Compare(a.Arrival, b.Arrival) }
	if !slices.IsSortedFunc(cfg.Tasks, byArrival) {
		s.order = make([]int32, len(cfg.Tasks))
		for i := range s.order {
			s.order[i] = int32(i)
		}
		slices.SortStableFunc(s.order, func(a, b int32) int { return byArrival(cfg.Tasks[a], cfg.Tasks[b]) })
	}
	return s
}

// nextArrival returns the next task to arrive, if any is left.
func (s *simulator) nextArrival() (task.Task, bool) {
	i := s.arrived
	if i == len(s.cfg.Tasks) {
		return task.Task{}, false
	}
	if s.order != nil {
		i = int(s.order[i])
	}
	return s.cfg.Tasks[i], true
}

// step processes the next event: the next arrival when it is due no
// later than the queue's top, else the queue's top. One queue holding
// the arrivals too would have had them all pushed before any other
// event, so it would pop the arrival first on a tie; step keeps that
// (time, insertion) order. It reports false, having done nothing, when
// no event is left at or before maxTime.
func (s *simulator) step(maxTime units.Seconds) bool {
	if t, ok := s.nextArrival(); ok && t.Arrival <= s.queue.NextTime() {
		if t.Arrival > maxTime {
			return false
		}
		s.arrived++
		s.now = t.Arrival
		s.onArrival(t)
		return true
	}
	item, ok := s.queue.Pop()
	if !ok || item.Time > maxTime {
		return false
	}
	s.now = item.Time
	s.handle(item.Payload)
	return true
}

// handle dispatches one queued event.
func (s *simulator) handle(payload any) {
	switch ev := payload.(type) {
	case evReady:
		s.onReady(ev.proc)
	case evInvoke:
		s.onInvoke()
	case evAssign:
		s.onAssign()
	case evComplete:
		s.onComplete(ev.proc)
	case evReissue:
		s.onReissue(ev.proc)
	}
}

// result closes the run's books.
func (s *simulator) result() Result {
	if s.cfg.Timeline != nil {
		s.cfg.Timeline.Makespan = s.makespan
	}
	res := Result{
		Makespan:      s.makespan,
		Completed:     s.completed,
		Reissued:      s.reissued,
		Procs:         s.stats,
		SchedulerBusy: s.schedTime,
		Invocations:   s.invocations,
	}
	if s.makespan > 0 {
		var busy units.Seconds
		for _, st := range s.stats {
			busy += st.Busy
		}
		res.Efficiency = float64(busy) / (float64(s.m) * float64(s.makespan))
	}
	return res
}

func (s *simulator) trace(kind TraceKind, proc int, id task.ID) {
	if s.cfg.Trace != nil {
		s.cfg.Trace(TraceEvent{Time: s.now, Kind: kind, Proc: proc, Task: id})
	}
}

func (s *simulator) onArrival(t task.Task) {
	s.trace(TraceArrival, -1, t.ID)
	if s.immediate != nil {
		j := s.immediate.Assign(t, view{s})
		s.enqueueOnProc(j, t)
		return
	}
	s.unscheduled.Push(t)
	s.requestInvoke()
}

// requestInvoke schedules a scheduler invocation check after all events
// at the current instant have been processed, so that simultaneous
// arrivals form one batch rather than the first arrival being scheduled
// alone.
func (s *simulator) requestInvoke() {
	if s.batch == nil || s.invokePending {
		return
	}
	s.invokePending = true
	s.queue.Push(s.now, evInvoke{})
}

// enqueueOnProc appends a task to processor j's scheduler-side queue and
// wakes the processor if it is starving.
func (s *simulator) enqueueOnProc(j int, t task.Task) {
	s.procQueues[j].Push(t)
	s.pending[j] += t.Size
	if s.idle[j] && !s.dead[j] {
		s.idle[j] = false
		s.queue.Push(s.now, evReady{proc: j})
	}
}

func (s *simulator) onInvoke() {
	s.invokePending = false
	if s.batch == nil || s.schedBusy || s.unscheduled.Empty() {
		return
	}
	v := view{s}
	h := s.sizer.NextBatchSize(s.unscheduled.Len(), v)
	if h < 1 {
		h = 1
	}
	batch := s.unscheduled.PopN(h)
	s.trace(TraceInvoke, -1, task.None)
	a, cost := s.batch.ScheduleBatch(batch, v)
	if got := a.Tasks(); got != len(batch) {
		panic(fmt.Sprintf("sim: scheduler %s returned %d of %d tasks", s.batch.Name(), got, len(batch)))
	}
	if cost < 0 {
		panic(fmt.Sprintf("sim: scheduler %s reported negative cost %v", s.batch.Name(), cost))
	}
	s.invocations++
	s.schedTime += cost
	s.schedBusy = true
	if s.cfg.Observer != nil {
		s.cfg.Observer.OnBatchDecided(observe.BatchDecision{
			Invocation: s.invocations,
			Scheduler:  s.batch.Name(),
			Tasks:      len(batch),
			Procs:      s.m,
			Cost:       cost,
			At:         s.now,
		})
	}
	s.decided = a
	s.queue.Push(s.now+cost, evAssign{})
}

func (s *simulator) onAssign() {
	a := s.decided
	s.decided = nil
	s.trace(TraceAssign, -1, task.None)
	for j, q := range a {
		for _, t := range q {
			s.enqueueOnProc(j, t)
		}
	}
	s.schedBusy = false
	s.requestInvoke()
}

func (s *simulator) onReady(j int) {
	if s.dead[j] {
		return
	}
	t, ok := s.procQueues[j].Pop()
	if !ok {
		s.idle[j] = true
		s.trace(TraceIdle, j, task.None)
		// A starving processor is the paper's cue to produce the next
		// schedule quickly; give the scheduler a chance immediately.
		s.requestInvoke()
		return
	}
	s.idle[j] = false

	// Transfer the task over the link (request + delivery), observing
	// the cost into the scheduler-visible estimator.
	comm := s.cfg.Net.Transfer(j)
	s.stats[j].Comm += comm
	start := s.now + comm
	s.trace(TraceStart, j, t.ID)
	if s.cfg.Observer != nil {
		s.cfg.Observer.OnDispatch(observe.Dispatch{Proc: j, Task: t.ID, At: s.now})
	}
	if s.cfg.Timeline != nil {
		s.cfg.Timeline.record(j, Segment{Start: s.now, End: start, Kind: SegComm, Task: t.ID})
	}

	finish := s.cfg.Cluster.Procs[j].CompletionTime(start, t.Size)
	s.inflight[j] = running{t: t, start: start, finish: finish, held: true}
	if finish.IsInf() {
		// Permanent outage mid-assignment: without recovery the task is
		// stranded (the paper's switched-off machine); with recovery a
		// reissue fires after the timeout.
		if s.cfg.ReissueTimeout > 0 {
			s.queue.Push(s.now+s.cfg.ReissueTimeout, evReissue{proc: j})
		}
		return
	}
	s.queue.Push(finish, evComplete{proc: j})
}

func (s *simulator) onComplete(j int) {
	e := s.inflight[j]
	if !e.held || s.dead[j] {
		return
	}
	s.inflight[j] = running{}
	t := e.t
	procTime := e.finish - e.start
	s.stats[j].Busy += procTime
	s.stats[j].Processed++
	s.pending[j] -= t.Size
	if s.pending[j] < 0 {
		s.pending[j] = 0
	}
	s.completed++
	if e.finish > s.makespan {
		s.makespan = e.finish
	}
	// Observe the effective processing rate for the scheduler's view.
	if procTime > 0 {
		s.rateEst[j].Observe(float64(t.Size) / float64(procTime))
	}
	if s.cfg.Timeline != nil {
		s.cfg.Timeline.record(j, Segment{Start: e.start, End: e.finish, Kind: SegBusy, Task: t.ID})
	}
	s.trace(TraceComplete, j, t.ID)
	// The processor immediately requests its next task.
	s.queue.Push(e.finish, evReady{proc: j})
}

func (s *simulator) onReissue(j int) {
	if s.dead[j] {
		return
	}
	s.dead[j] = true
	s.stats[j].Dead = true
	s.trace(TraceReissue, j, task.None)

	// Recover the in-flight task and everything queued behind it.
	var recovered []task.Task
	if e := s.inflight[j]; e.held {
		recovered = append(recovered, e.t)
		s.inflight[j] = running{}
	}
	recovered = append(recovered, s.procQueues[j].PopN(s.procQueues[j].Len())...)
	s.pending[j] = 0
	s.reissued += len(recovered)

	for _, t := range recovered {
		if s.immediate != nil {
			k := s.immediate.Assign(t, view{s})
			s.enqueueOnProc(k, t)
		} else {
			s.unscheduled.Push(t)
		}
	}
	s.requestInvoke()
}
