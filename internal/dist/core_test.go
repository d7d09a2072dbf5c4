package dist

import (
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/telemetry"
	"pnsched/internal/units"
)

// coreOwner records what the pool core hands its owner. Workers that
// join get lease; every lease is live.
type coreOwner struct {
	lease  any
	done   []task.Task
	lost   [][]task.Task
	unsent []task.Task
}

func (o *coreOwner) LeaseLocked(*Worker) any            { return o.lease }
func (o *coreOwner) LiveLocked(any) bool                { return true }
func (o *coreOwner) BatchLocked(any) int                { return 0 }
func (o *coreOwner) WireIDLocked(t task.Task) int32     { return int32(t.ID) }
func (o *coreOwner) UnsentLocked(_ any, ts []task.Task) { o.unsent = append(o.unsent, ts...) }
func (o *coreOwner) StatsLocked(*Snapshot)              {}
func (o *coreOwner) ServeRequest(net.Conn, *Message) bool {
	return false
}
func (o *coreOwner) DoneLocked(_ any, _ string, t task.Task, _ units.Seconds, _ time.Time) []JobEvent {
	o.done = append(o.done, t)
	return nil
}
func (o *coreOwner) LostLocked(_ any, _ string, lost []task.Task, _ time.Time) (int, []JobEvent) {
	o.lost = append(o.lost, lost)
	return len(lost), nil
}

// batchOf is a scheduler whose §3.7 batch size is fixed; the core test
// never runs it, only sizes batches with it.
type batchOf int

func (batchOf) Name() string                         { return "FIXED" }
func (n batchOf) NextBatchSize(int, sched.State) int { return int(n) }
func (batchOf) ScheduleBatch([]task.Task, sched.State) (sched.Assignment, units.Seconds) {
	return nil, 0
}

// coreRig is a pool driven only through its core: no listener, no
// connection, no goroutine, and a clock that moves when the test says.
type coreRig struct {
	p     *Pool
	o     *coreOwner
	q     *task.Queue
	start time.Time
}

func newCoreRig(t *testing.T, backlog int) *coreRig {
	t.Helper()
	r := &coreRig{o: &coreOwner{}, q: task.NewQueue(8), start: time.Unix(1_000_000, 0)}
	p, err := NewPool(PoolConfig{Metrics: telemetry.NewRegistry()}, r.o)
	if err != nil {
		t.Fatal(err)
	}
	p.Start = r.start
	p.backlog = backlog
	r.p = p
	return r
}

// at is the pool clock plus d.
func (r *coreRig) at(d time.Duration) time.Time { return r.start.Add(d) }

func (r *coreRig) join(name string, rate units.Rate) *Worker {
	w, _ := r.p.joinLocked(name, rate)
	return w
}

// send takes a batch of ts for the lease at now and commits it all to
// the j-th worker carrying the lease, as Run does after a decision. It
// returns the frames to queue.
func (r *coreRig) send(lease any, now time.Time, j int, ts ...task.Task) [][]task.Task {
	r.q.PushAll(ts)
	batch, snap := r.p.takeLocked(lease, r.q, batchOf(len(ts)), now)
	asg := sched.NewAssignment(snap.M())
	asg[j] = batch
	frames, _ := r.p.commitLocked(lease, snap.workers, asg, now, nil, nil)
	return frames
}

func tk(id task.ID, size units.MFlops) task.Task { return task.Task{ID: id, Size: size} }

func ids(ts []task.Task) []task.ID {
	out := make([]task.ID, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}

// TestPoolCore drives the pool's decisions directly, with a fake owner,
// hand-built workers and synthetic times: each row pins one rule of the
// core that the conversation tests can only reach over a pipe.
func TestPoolCore(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, r *coreRig)
	}{
		{"duplicate and unknown done reports are ignored", func(t *testing.T, r *coreRig) {
			w := r.join("w1", 100)
			r.send(nil, r.at(0), 0, tk(1, 10), tk(2, 20))
			r.p.doneLocked(w, 1, 0.1, 0, r.at(time.Second))
			r.p.doneLocked(w, 1, 0.1, 0, r.at(2*time.Second))
			r.p.doneLocked(w, 9999, 0.1, 0, r.at(3*time.Second))
			if len(r.o.done) != 1 || w.completed != 1 || r.p.latN != 1 || len(w.outstanding) != 1 || w.pending != 20 {
				t.Errorf("after done, duplicate, unknown: owner saw %v, completed %d, latency samples %d, outstanding %d, pending %g",
					ids(r.o.done), w.completed, r.p.latN, len(w.outstanding), float64(w.pending))
			}
		}},
		{"fractional sizes leave a drained worker at pending 0", func(t *testing.T, r *coreRig) {
			// Defect (a): these sizes sum, and un-sum in this order, to
			// 5.55e-17 in float64.
			sizes := []units.MFlops{0.1, 0.2, 0.3, 0.7, 1.1, 2.3}
			w := r.join("w1", 100)
			ts := make([]task.Task, len(sizes))
			for i, s := range sizes {
				ts[i] = tk(task.ID(i), s)
			}
			r.send(nil, r.at(0), 0, ts...)
			for _, i := range []int32{3, 0, 5, 1, 4, 2} {
				r.p.doneLocked(w, i, 1, 0, r.at(time.Second))
			}
			if w.pending != 0 {
				t.Errorf("drained worker's pending = %g, want exactly 0", float64(w.pending))
			}
		}},
		{"TimeUntilFirstIdle is 0 beside an idle worker, +Inf with none loaded", func(t *testing.T, r *coreRig) {
			w1, w2 := r.join("w1", 100), r.join("w2", 50)
			if got := r.p.snapshotLocked(nil, r.at(0)).TimeUntilFirstIdle(); !math.IsInf(float64(got), 1) {
				t.Errorf("nothing loaded: %v, want +Inf", got)
			}
			r.send(nil, r.at(0), 0, tk(1, 50))
			if got := r.p.snapshotLocked(nil, r.at(0)).TimeUntilFirstIdle(); got != 0 {
				t.Errorf("w1 loaded, w2 idle: %v, want 0", got)
			}
			r.send(nil, r.at(0), 1, tk(2, 100))
			if got := r.p.snapshotLocked(nil, r.at(0)).TimeUntilFirstIdle(); got != 0.5 {
				t.Errorf("both loaded: %v, want w1's 50/100 = 0.5", got)
			}
			r.p.doneLocked(w1, 1, 0.5, 0, r.at(time.Second))
			r.p.doneLocked(w2, 2, 2, 0, r.at(time.Second))
			snap := r.p.snapshotLocked(nil, r.at(3*time.Second))
			if got := snap.TimeUntilFirstIdle(); !math.IsInf(float64(got), 1) {
				t.Errorf("both drained: %v, want +Inf", got)
			}
			if snap.Now() != 3 {
				t.Errorf("snapshot Now = %v, want 3 s on the pool clock", snap.Now())
			}
		}},
		{"Γc is observed only for a solo task whose slack exceeds the noise floor", func(t *testing.T, r *coreRig) {
			primed := func(w *Worker) bool { return !math.IsNaN(w.comm.ValueOr(math.NaN())) }
			// Two tasks in one batch: only the first is solo. The second
			// reports a huge slack and is still not an observation.
			w := r.join("w1", 100)
			r.send(nil, r.at(0), 0, tk(1, 100), tk(2, 100))
			r.p.doneLocked(w, 2, 1, 0.01, r.at(time.Second))
			if primed(w) {
				t.Errorf("a queued task's slack was observed as Γc")
			}
			// The solo task: 0.5 ms of slack is under the floor.
			r.p.doneLocked(w, 1, 1, 0.0015, r.at(2*time.Millisecond))
			if primed(w) {
				t.Errorf("slack below commNoiseFloor was observed as Γc")
			}
			// Without a real time there is no slack to take.
			r.send(nil, r.at(time.Second), 0, tk(3, 100))
			r.p.doneLocked(w, 3, 1, 0, r.at(2*time.Second))
			if primed(w) {
				t.Errorf("a report without real time was observed as Γc")
			}
			// Solo, 40 ms of real slack on a worker whose clock runs
			// elapsed/real = 200× real: Γc = 0.04 × 200 = 8 simulated s.
			r.send(nil, r.at(3*time.Second), 0, tk(4, 100))
			r.p.doneLocked(w, 4, 2, 0.01, r.at(3*time.Second+50*time.Millisecond))
			if got := w.comm.ValueOr(math.NaN()); !(math.Abs(got-8) <= 1e-9) {
				t.Errorf("Γc = %v, want 8", got)
			}
		}},
		{"lost tasks reach LostLocked in ID order, lease cleared, counted as reissued", func(t *testing.T, r *coreRig) {
			r.o.lease = "job"
			w, other := r.join("w1", 100), r.join("w2", 100)
			r.send("job", r.at(0), 0, tk(5, 1), tk(3, 1), tk(9, 1), tk(1, 1), tk(7, 1), tk(2, 1))
			requeued, pool, _ := r.p.leaveLocked(w, r.at(time.Second))
			if requeued != 6 || pool != 1 || len(r.p.workers) != 1 || r.p.workers[0] != other {
				t.Errorf("leave returned requeued %d, pool %d; workers %v", requeued, pool, r.p.workers)
			}
			if len(r.o.lost) != 1 || !slices.Equal(ids(r.o.lost[0]), []task.ID{1, 2, 3, 5, 7, 9}) {
				t.Errorf("owner was handed %v, want one list in ID order", r.o.lost)
			}
			if w.Lease != nil || !w.gone {
				t.Errorf("departed worker kept lease %v (gone %v)", w.Lease, w.gone)
			}
			if got := r.p.met.reissued.Value(); got != 6 {
				t.Errorf("reissued counter = %v, want 6", got)
			}
		}},
		{"a batch for a worker that left or changed lease goes back unsent", func(t *testing.T, r *coreRig) {
			stay, leave, moved := r.join("stay", 100), r.join("leave", 100), r.join("moved", 100)
			r.q.PushAll([]task.Task{tk(0, 1), tk(1, 1), tk(2, 1)})
			batch, snap := r.p.takeLocked(nil, r.q, batchOf(3), r.at(0))
			if got := ids(r.p.InFlightLocked(nil)); !slices.Equal(got, []task.ID{0, 1, 2}) {
				t.Errorf("while being scheduled, in flight = %v, want the batch", got)
			}
			// The scheduler runs with the lock free; meanwhile one worker
			// leaves and another is re-leased.
			r.p.leaveLocked(leave, r.at(time.Second))
			moved.Lease = "elsewhere"
			frames, _ := r.p.commitLocked(nil, snap.workers, sched.Assignment{batch[:1], batch[1:2], batch[2:]}, r.at(time.Second), nil, nil)
			if len(frames) != 3 || len(frames[0]) != 1 || frames[1] != nil || frames[2] != nil {
				t.Errorf("frames = %v, want one frame, for the worker that stayed", frames)
			}
			if got := ids(r.o.unsent); !slices.Equal(got, []task.ID{1, 2}) {
				t.Errorf("unsent = %v, want tasks 1 and 2", got)
			}
			if len(stay.outstanding) != 1 || len(moved.outstanding) != 0 {
				t.Errorf("outstanding: stay %d, moved %d; want 1, 0", len(stay.outstanding), len(moved.outstanding))
			}
			if got := ids(r.p.InFlightLocked(nil)); !slices.Equal(got, []task.ID{0}) {
				t.Errorf("after commit, in flight = %v, want only task 0", got)
			}
		}},
		{"take clamps the §3.7 batch size to the queue and to at least 1", func(t *testing.T, r *coreRig) {
			r.join("w1", 100)
			r.q.PushAll([]task.Task{tk(0, 1), tk(1, 1), tk(2, 1)})
			if batch, _ := r.p.takeLocked(nil, r.q, batchOf(0), r.at(0)); len(batch) != 1 {
				t.Errorf("size 0 took %d tasks, want 1", len(batch))
			}
			if batch, _ := r.p.takeLocked(nil, r.q, batchOf(1000), r.at(0)); len(batch) != 2 {
				t.Errorf("size 1000 took %d tasks, want the 2 queued", len(batch))
			}
		}},
		{"backlog pacing", func(t *testing.T, r *coreRig) {
			w1 := r.join("w1", 100)
			r.join("w2", 100)
			r.o.lease = "other"
			r.join("w3", 100) // idle, but not the lease's
			if !r.p.wantsWorkLocked(nil) {
				t.Fatal("idle workers do not want work")
			}
			r.send(nil, r.at(0), 0, tk(0, 1), tk(1, 1))
			if !r.p.wantsWorkLocked(nil) {
				t.Error("w1 is at its backlog but w2 is idle: the lease wants work")
			}
			r.send(nil, r.at(0), 1, tk(2, 1), tk(3, 1))
			if r.p.wantsWorkLocked(nil) {
				t.Error("every worker of the lease holds its backlog: dispatch must pause")
			}
			r.p.doneLocked(w1, 0, 1, 0, r.at(time.Second))
			if !r.p.wantsWorkLocked(nil) {
				t.Error("w1 drops below its backlog: dispatch must resume")
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { row.run(t, newCoreRig(t, 2)) })
	}
}
