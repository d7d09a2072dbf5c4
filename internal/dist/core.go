package dist

import (
	"math"
	"slices"
	"sort"
	"time"

	"pnsched/internal/observe"
	"pnsched/internal/sched"
	"pnsched/internal/smoothing"
	"pnsched/internal/task"
	"pnsched/internal/telemetry"
	"pnsched/internal/units"
)

// This file is the pool's core: poolCore, the state its decisions touch,
// and the decisions themselves, as …Locked methods that take the time
// as a value and return what the shell (pool.go) must do. The
// determinism analyzer checks it, and TestCoreMethodsInCoreFile keeps
// every poolCore method here.

// poolCore is what the pool's decisions read and write, and nothing
// else: no lock, connection, goroutine, clock or event sink. Pool embeds
// it, and Pool.Mu guards it. A test builds one as a literal.
type poolCore struct {
	// Start is the epoch of every event and snapshot timestamp. An
	// owner restoring persisted state may set it before the pool is
	// shared.
	Start time.Time

	owner   Owner
	backlog int         // DefaultBacklog; TestPoolCore's rig paces with 2
	met     coreMetrics // the zero value's nil instruments no-op

	workers []*Worker // connected, in registration order
	closed  bool
	frames  [][]task.Task // commitLocked's output, reused by every Run
	// scheduling holds, per lease, the batch Run has popped from the
	// queue and not yet dispatched — the scheduler is deciding it with
	// the lock released. Invariant, under Mu: every unfinished task of a
	// live lease is in exactly one of its queue, a worker's outstanding
	// set, or this map, and InFlightLocked reports the last two, so a
	// durable snapshot taken at any instant misses no task.
	scheduling map[any][]task.Task

	// latency is a sliding window of dispatch→done wall-clock round
	// trips in seconds (written circularly at latW, latN valid) feeding
	// the Snapshot quantiles. Bounded so a long-lived pool's snapshot
	// reflects current behaviour, not its whole history.
	latency    [latencyWindow]float64
	latW, latN int
}

const latencyWindow = 512

// coreMetrics holds the core's telemetry instruments, nil when
// telemetry is off.
type coreMetrics struct {
	dispatched      *telemetry.Counter
	dispatchLatency *telemetry.Histogram
}

// commNoiseFloor is the smallest round-trip slack, in real seconds,
// accepted as a Γc link-overhead observation. Sub-millisecond slack on
// a local network is indistinguishable from scheduler jitter.
const commNoiseFloor = 1e-3

// pendingTask is a dispatched-but-unfinished task plus the bookkeeping
// for the Γc link-overhead estimate.
type pendingTask struct {
	t      task.Task
	sentAt time.Time
	// solo marks tasks dispatched to a worker with an empty queue: for
	// those, round-trip minus processing time approximates the link
	// overhead without queueing noise.
	solo bool
}

func (w *Worker) believed() units.Rate {
	return units.Rate(w.rate.ValueOr(float64(w.claimed)))
}

// ClosedLocked reports whether Close has been called.
func (p *poolCore) ClosedLocked() bool { return p.closed }

// Since converts an absolute time to the pool clock — seconds since
// Start, the clock every event and timestamp uses. The zero time maps
// to 0.
func (p *poolCore) Since(t time.Time) units.Seconds {
	if t.IsZero() {
		return 0
	}
	return units.Seconds(t.Sub(p.Start).Seconds())
}

// WorkersLocked returns the connected workers in registration order;
// the slice is the pool's own and valid only while Mu is held.
func (p *poolCore) WorkersLocked() []*Worker { return p.workers }

// ReleaseLocked ends a lease: every worker carrying it becomes free and
// forgets its in-flight tasks. Those cannot be recalled (the protocol
// has no abort message) — their eventual done reports no longer resolve
// and are ignored.
func (p *poolCore) ReleaseLocked(lease any) {
	for _, w := range p.workers {
		if w.Lease == lease {
			w.Lease = nil
			clear(w.outstanding)
			w.pending = 0
		}
	}
}

// InFlightLocked returns the tasks that have left the lease's queue and
// are not yet reported done — dispatched to a worker, or in the batch
// the scheduler is deciding right now — in task-ID order.
func (p *poolCore) InFlightLocked(lease any) []task.Task {
	ts := slices.Clone(p.scheduling[lease])
	for _, w := range p.workers {
		if w.Lease == lease {
			for _, pt := range w.outstanding {
				ts = append(ts, pt.t)
			}
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	return ts
}

// joinLocked registers a worker that said hello, its §3.6 beliefs primed
// with the claimed rating, and asks the owner for its lease. It returns
// the worker, for the shell to connect, and the pool size.
func (p *poolCore) joinLocked(name string, claimed units.Rate) (*Worker, int) {
	w := &Worker{
		name:        name,
		claimed:     claimed,
		rate:        smoothing.New(DefaultNu),
		comm:        smoothing.New(DefaultNu),
		outstanding: make(map[int32]pendingTask),
	}
	w.rate.Observe(float64(claimed))
	p.workers = append(p.workers, w)
	w.Lease = p.owner.LeaseLocked(w)
	return w, len(p.workers)
}

// doneLocked records one task reported done at now — load, §3.6 rate
// and link-overhead observations, latency, the owner's bookkeeping.
// real is the worker's wall-clock processing time in seconds (0 if
// absent). A report whose wire id no longer resolves (duplicate, or its
// lease was released) is ignored.
func (p *poolCore) doneLocked(w *Worker, id int32, elapsed units.Seconds, real float64, now time.Time) {
	pt, ok := w.outstanding[id]
	if !ok {
		return
	}
	delete(w.outstanding, id)
	// pending is a float running sum: with fractional sizes it does not
	// return to exactly 0 by subtraction, and a residue makes a drained
	// worker look loaded — TimeUntilFirstIdle ≈ 0, which starves every
	// later GA run of its §3.4 budget. Nothing outstanding means idle.
	w.pending -= pt.t.Size
	if len(w.outstanding) == 0 || w.pending < 0 {
		w.pending = 0
	}
	w.completed++
	lat := now.Sub(pt.sentAt).Seconds()
	p.latency[p.latW] = lat
	p.latW = (p.latW + 1) % latencyWindow
	if p.latN < latencyWindow {
		p.latN++
	}
	p.met.dispatchLatency.Observe(lat)
	// Only a positive, finite rate is a §3.6 observation: a zero-size
	// task, or a subnormal elapsed, would drag or blow up the estimate.
	if rate := float64(pt.t.Size) / float64(elapsed); rate > 0 && !math.IsInf(rate, 1) {
		w.rate.Observe(rate)
	}
	if pt.solo && real > 0 && elapsed > 0 {
		// For tasks that never queued, round-trip slack — wall time from
		// dispatch to report minus wall processing time — is the link
		// overhead in real seconds. Scale it by elapsed/real (the
		// worker's simulated:real clock ratio) so Γc lives on the same
		// simulated clock as every other scheduler quantity, whatever
		// the worker's TimeScale. Smoothing and the solo-dispatch gate
		// bound the jitter this amplifies under heavy compression, and
		// slack below commNoiseFloor is discarded outright: at that
		// magnitude the measurement is goroutine-scheduling noise, and
		// the elapsed/real ratio would amplify it into a phantom link
		// cost large enough to distort placement (loopback tests under
		// the race detector hit exactly this). A subnormal real would
		// scale any slack to +Inf, so only a finite Γc is observed.
		if slack := lat - real; slack > commNoiseFloor {
			if gc := slack * float64(elapsed) / real; !math.IsInf(gc, 1) {
				w.comm.Observe(gc)
			}
		}
	}
	p.owner.DoneLocked(w.Lease, w.name, pt.t, elapsed, now)
}

// leaveLocked removes a worker that left at now, handing its unfinished
// tasks to the owner in task-ID order. It returns how many the owner
// requeued and the pool size left.
func (p *poolCore) leaveLocked(w *Worker, now time.Time) (requeued, pool int) {
	w.gone = true
	p.workers = slices.DeleteFunc(p.workers, func(x *Worker) bool { return x == w })
	lost := make([]task.Task, 0, len(w.outstanding))
	for _, pt := range w.outstanding {
		lost = append(lost, pt.t)
	}
	w.outstanding = nil
	// Reissue in deterministic (ID) order so reruns behave alike.
	sort.Slice(lost, func(i, j int) bool { return lost[i].ID < lost[j].ID })
	requeued = p.owner.LostLocked(w.Lease, w.name, lost, now)
	w.Lease = nil
	return requeued, len(p.workers)
}

// wantsWorkLocked reports whether some worker carrying the lease is
// below its backlog — the pacing condition of the batch loop.
func (p *poolCore) wantsWorkLocked(lease any) bool {
	for _, w := range p.workers {
		if w.Lease == lease && len(w.outstanding) < p.backlog {
			return true
		}
	}
	return false
}

// takeLocked pops the lease's next batch from q — sized by §3.7 when
// sch implements sched.BatchSizer — against a snapshot of its workers
// at now, and holds it in scheduling until commitLocked.
func (p *poolCore) takeLocked(lease any, q *task.Queue, sch sched.Batch, now time.Time) ([]task.Task, *snapshot) {
	snap := p.snapshotLocked(lease, now)
	n := sched.DefaultBatchSize
	if bs, ok := sch.(sched.BatchSizer); ok {
		n = bs.NextBatchSize(q.Len(), snap)
	}
	batch := q.PopN(max(min(n, q.Len()), 1))
	p.scheduling[lease] = batch
	return batch, snap
}

// commitLocked applies the decision asg, computed for workers, at now,
// appending one assign frame per worker to frames (nil for none) and
// one dispatch event per task to events. Tasks for a worker that left
// or changed lease while the scheduler ran go back to the owner unsent,
// as does the batch of a dead lease.
func (p *poolCore) commitLocked(lease any, workers []*Worker, asg sched.Assignment, now time.Time,
	frames [][]task.Task, events []observe.Dispatch) ([][]task.Task, []observe.Dispatch) {
	delete(p.scheduling, lease)
	at := p.Since(now)
	live := !p.closed && p.owner.LiveLocked(lease)
	for j, ts := range asg {
		w := workers[j]
		var wire []task.Task
		switch {
		case len(ts) == 0:
		case !live || w.gone || w.Lease != lease:
			p.owner.UnsentLocked(lease, ts)
		default:
			solo := len(w.outstanding) == 0
			p.met.dispatched.Add(float64(len(ts)))
			wire = slices.Clone(ts)
			for i, t := range ts {
				id := p.owner.WireIDLocked(t)
				wire[i].ID = task.ID(id)
				w.outstanding[id] = pendingTask{t: t, sentAt: now, solo: solo}
				w.pending += t.Size
				solo = false
				events = append(events, observe.Dispatch{Proc: j, Task: t.ID, At: at})
			}
		}
		frames = append(frames, wire)
	}
	return frames, events
}

// statsLocked fills a stats snapshot as of now and copies out the
// latency window, oldest first, for the caller to summarise.
func (p *poolCore) statsLocked(now time.Time) (Snapshot, []float64) {
	snap := Snapshot{Uptime: p.Since(now)}
	p.owner.StatsLocked(&snap)
	for _, w := range p.workers {
		snap.Running += len(w.outstanding)
		snap.Workers = append(snap.Workers, WorkerSnapshot{
			Name:      w.name,
			Rate:      w.believed(),
			Running:   len(w.outstanding),
			Completed: w.completed,
		})
	}
	window := make([]float64, p.latN)
	first := p.latW - p.latN + latencyWindow
	for i := range window {
		window[i] = p.latency[(first+i)%latencyWindow]
	}
	return snap, window
}

// snapshot implements sched.State over a fixed view of the workers
// carrying one lease, so the batch scheduler sees a coherent system
// while the live one keeps moving underneath.
type snapshot struct {
	workers []*Worker
	rates   []units.Rate
	loads   []units.MFlops
	comm    []units.Seconds
	now     units.Seconds
}

// snapshotLocked captures the scheduler-visible state for one lease at
// now: the workers carrying it, in pool order.
func (p *poolCore) snapshotLocked(lease any, now time.Time) *snapshot {
	m := len(p.workers) // room for all: one allocation per slice, not a counting pass
	v := &snapshot{
		workers: make([]*Worker, 0, m),
		rates:   make([]units.Rate, 0, m),
		loads:   make([]units.MFlops, 0, m),
		comm:    make([]units.Seconds, 0, m),
		now:     p.Since(now),
	}
	for _, w := range p.workers {
		if w.Lease == lease {
			v.workers = append(v.workers, w)
			v.rates = append(v.rates, w.believed())
			v.loads = append(v.loads, w.pending)
			v.comm = append(v.comm, units.Seconds(w.comm.ValueOr(0)))
		}
	}
	return v
}

// M implements sched.State.
func (v *snapshot) M() int { return len(v.workers) }

// Rate implements sched.State.
func (v *snapshot) Rate(j int) units.Rate { return v.rates[j] }

// PendingLoad implements sched.State.
func (v *snapshot) PendingLoad(j int) units.MFlops { return v.loads[j] }

// CommEstimate implements sched.State.
func (v *snapshot) CommEstimate(j int) units.Seconds { return v.comm[j] }

// Now implements sched.State; live time is wall-clock seconds since the
// pool started.
func (v *snapshot) Now() units.Seconds { return v.now }

// TimeUntilFirstIdle implements sched.State with the semantics the
// simulator uses: the soonest moment a loaded worker runs dry, 0 if some
// worker already idles while others hold work, +Inf when nothing is
// loaded.
func (v *snapshot) TimeUntilFirstIdle() units.Seconds {
	idle, loaded := false, false
	min := units.Inf()
	for j, load := range v.loads {
		if load == 0 {
			idle = true
			continue
		}
		loaded = true
		if d := load.TimeOn(v.rates[j]); d < min {
			min = d
		}
	}
	if idle && loaded {
		return 0 // an idle worker exists while work is pending elsewhere
	}
	return min
}
