package dist

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"net"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// coreOwner records what the pool core hands its owner. Workers that
// join get lease; every lease is live. It reports what it requeued as
// Reissued.
type coreOwner struct {
	lease   any
	done    []task.Task
	lost    [][]task.Task
	unsent  []task.Task
	commits int // holds ended with done reports applied in them
	applied int // len(done) at the last counted commit
}

func (o *coreOwner) LeaseLocked(*Worker) any            { return o.lease }
func (o *coreOwner) LiveLocked(any) bool                { return true }
func (o *coreOwner) BatchLocked(any) int                { return 0 }
func (o *coreOwner) WireIDLocked(t task.Task) int32     { return int32(t.ID) }
func (o *coreOwner) UnsentLocked(_ any, ts []task.Task) { o.unsent = append(o.unsent, ts...) }
func (o *coreOwner) ServeRequest(net.Conn, *Message) bool {
	return false
}
func (o *coreOwner) DoneLocked(_ any, _ string, t task.Task, _ units.Seconds, _ time.Time) {
	o.done = append(o.done, t)
}
func (o *coreOwner) LostLocked(_ any, _ string, lost []task.Task, _ time.Time) int {
	o.lost = append(o.lost, lost)
	return len(lost)
}
func (o *coreOwner) CommitLocked() {
	if len(o.done) > o.applied {
		o.commits, o.applied = o.commits+1, len(o.done)
	}
}
func (o *coreOwner) StatsLocked(s *Snapshot) {
	for _, l := range o.lost {
		s.Reissued += len(l)
	}
}

// batchOf is a scheduler whose §3.7 batch size is fixed; the core test
// never runs it, only sizes batches with it.
type batchOf int

func (batchOf) Name() string                         { return "FIXED" }
func (n batchOf) NextBatchSize(int, sched.State) int { return int(n) }
func (batchOf) ScheduleBatch([]task.Task, sched.State) (sched.Assignment, units.Seconds) {
	return nil, 0
}

// coreRig is a bare pool core: no Pool, lock, listener, connection or
// goroutine, and a clock that moves when the test says.
type coreRig struct {
	c     *poolCore
	o     *coreOwner
	q     *task.Queue
	start time.Time
}

func newCoreRig(t testing.TB, backlog int) *coreRig {
	t.Helper()
	o, start := &coreOwner{}, time.Unix(1_000_000, 0)
	return &coreRig{
		c: &poolCore{Start: start, owner: o, backlog: backlog, scheduling: map[any][]task.Task{}},
		o: o, q: task.NewQueue(8), start: start,
	}
}

// at is the pool clock plus d.
func (r *coreRig) at(d time.Duration) time.Time { return r.start.Add(d) }

func (r *coreRig) join(name string, rate units.Rate) *Worker {
	w, _ := r.c.joinLocked(name, rate)
	return w
}

// send takes a batch of ts for the lease at now and commits it all to
// the j-th worker carrying the lease, as Run does after a decision. It
// returns the frames to queue.
func (r *coreRig) send(lease any, now time.Time, j int, ts ...task.Task) [][]task.Task {
	r.q.PushAll(ts)
	batch, snap := r.c.takeLocked(lease, r.q, batchOf(len(ts)), now)
	asg := sched.NewAssignment(snap.M())
	asg[j] = batch
	frames, _ := r.c.commitLocked(lease, snap.workers, asg, now, nil, nil)
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

// TestPoolCore drives a bare poolCore, with a fake owner, hand-built
// workers and synthetic times: each row pins one rule of the core that
// the conversation tests can only reach over a pipe.
func TestPoolCore(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, r *coreRig)
	}{
		{"duplicate and unknown done reports are ignored", func(t *testing.T, r *coreRig) {
			w := r.join("w1", 100)
			r.send(nil, r.at(0), 0, tk(1, 10), tk(2, 20))
			r.c.doneLocked(w, 1, 0.1, 0, r.at(time.Second))
			r.c.doneLocked(w, 1, 0.1, 0, r.at(2*time.Second))
			r.c.doneLocked(w, 9999, 0.1, 0, r.at(3*time.Second))
			if len(r.o.done) != 1 || w.completed != 1 || r.c.latN != 1 || len(w.outstanding) != 1 || w.pending != 20 {
				t.Errorf("after done, duplicate, unknown: owner saw %v, completed %d, latency samples %d, outstanding %d, pending %g",
					ids(r.o.done), w.completed, r.c.latN, len(w.outstanding), float64(w.pending))
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
				r.c.doneLocked(w, i, 1, 0, r.at(time.Second))
			}
			if w.pending != 0 {
				t.Errorf("drained worker's pending = %g, want exactly 0", float64(w.pending))
			}
		}},
		{"TimeUntilFirstIdle is 0 beside an idle worker, +Inf with none loaded", func(t *testing.T, r *coreRig) {
			w1, w2 := r.join("w1", 100), r.join("w2", 50)
			if got := r.c.snapshotLocked(nil, r.at(0)).TimeUntilFirstIdle(); !math.IsInf(float64(got), 1) {
				t.Errorf("nothing loaded: %v, want +Inf", got)
			}
			r.send(nil, r.at(0), 0, tk(1, 50))
			if got := r.c.snapshotLocked(nil, r.at(0)).TimeUntilFirstIdle(); got != 0 {
				t.Errorf("w1 loaded, w2 idle: %v, want 0", got)
			}
			r.send(nil, r.at(0), 1, tk(2, 100))
			if got := r.c.snapshotLocked(nil, r.at(0)).TimeUntilFirstIdle(); got != 0.5 {
				t.Errorf("both loaded: %v, want w1's 50/100 = 0.5", got)
			}
			r.c.doneLocked(w1, 1, 0.5, 0, r.at(time.Second))
			r.c.doneLocked(w2, 2, 2, 0, r.at(time.Second))
			snap := r.c.snapshotLocked(nil, r.at(3*time.Second))
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
			r.c.doneLocked(w, 2, 1, 0.01, r.at(time.Second))
			if primed(w) {
				t.Errorf("a queued task's slack was observed as Γc")
			}
			// The solo task: 0.5 ms of slack is under the floor.
			r.c.doneLocked(w, 1, 1, 0.0015, r.at(2*time.Millisecond))
			if primed(w) {
				t.Errorf("slack below commNoiseFloor was observed as Γc")
			}
			// Without a real time there is no slack to take.
			r.send(nil, r.at(time.Second), 0, tk(3, 100))
			r.c.doneLocked(w, 3, 1, 0, r.at(2*time.Second))
			if primed(w) {
				t.Errorf("a report without real time was observed as Γc")
			}
			// Solo, 40 ms of real slack on a worker whose clock runs
			// elapsed/real = 200× real: Γc = 0.04 × 200 = 8 simulated s.
			r.send(nil, r.at(3*time.Second), 0, tk(4, 100))
			r.c.doneLocked(w, 4, 2, 0.01, r.at(3*time.Second+50*time.Millisecond))
			if got := w.comm.ValueOr(math.NaN()); !(math.Abs(got-8) <= 1e-9) {
				t.Errorf("Γc = %v, want 8", got)
			}
		}},
		{"lost tasks reach LostLocked in ID order, lease cleared, counted as reissued", func(t *testing.T, r *coreRig) {
			r.o.lease = "job"
			w, other := r.join("w1", 100), r.join("w2", 100)
			r.send("job", r.at(0), 0, tk(5, 1), tk(3, 1), tk(9, 1), tk(1, 1), tk(7, 1), tk(2, 1))
			requeued, pool := r.c.leaveLocked(w, r.at(time.Second))
			if requeued != 6 || pool != 1 || len(r.c.workers) != 1 || r.c.workers[0] != other {
				t.Errorf("leave returned requeued %d, pool %d; workers %v", requeued, pool, r.c.workers)
			}
			if len(r.o.lost) != 1 || !slices.Equal(ids(r.o.lost[0]), []task.ID{1, 2, 3, 5, 7, 9}) {
				t.Errorf("owner was handed %v, want one list in ID order", r.o.lost)
			}
			if w.Lease != nil || !w.gone {
				t.Errorf("departed worker kept lease %v (gone %v)", w.Lease, w.gone)
			}
			if snap, _ := r.c.statsLocked(r.at(time.Second)); snap.Reissued != 6 {
				t.Errorf("reissued = %d, want 6", snap.Reissued)
			}
		}},
		{"a batch for a worker that left or changed lease goes back unsent", func(t *testing.T, r *coreRig) {
			stay, leave, moved := r.join("stay", 100), r.join("leave", 100), r.join("moved", 100)
			r.q.PushAll([]task.Task{tk(0, 1), tk(1, 1), tk(2, 1)})
			batch, snap := r.c.takeLocked(nil, r.q, batchOf(3), r.at(0))
			if got := ids(r.c.InFlightLocked(nil)); !slices.Equal(got, []task.ID{0, 1, 2}) {
				t.Errorf("while being scheduled, in flight = %v, want the batch", got)
			}
			// The scheduler runs with the lock free; meanwhile one worker
			// leaves and another is re-leased.
			r.c.leaveLocked(leave, r.at(time.Second))
			moved.Lease = "elsewhere"
			frames, _ := r.c.commitLocked(nil, snap.workers, sched.Assignment{batch[:1], batch[1:2], batch[2:]}, r.at(time.Second), nil, nil)
			if len(frames) != 3 || len(frames[0]) != 1 || frames[1] != nil || frames[2] != nil {
				t.Errorf("frames = %v, want one frame, for the worker that stayed", frames)
			}
			if got := ids(r.o.unsent); !slices.Equal(got, []task.ID{1, 2}) {
				t.Errorf("unsent = %v, want tasks 1 and 2", got)
			}
			if len(stay.outstanding) != 1 || len(moved.outstanding) != 0 {
				t.Errorf("outstanding: stay %d, moved %d; want 1, 0", len(stay.outstanding), len(moved.outstanding))
			}
			if got := ids(r.c.InFlightLocked(nil)); !slices.Equal(got, []task.ID{0}) {
				t.Errorf("after commit, in flight = %v, want only task 0", got)
			}
		}},
		{"take clamps the §3.7 batch size to the queue and to at least 1", func(t *testing.T, r *coreRig) {
			r.join("w1", 100)
			r.q.PushAll([]task.Task{tk(0, 1), tk(1, 1), tk(2, 1)})
			if batch, _ := r.c.takeLocked(nil, r.q, batchOf(0), r.at(0)); len(batch) != 1 {
				t.Errorf("size 0 took %d tasks, want 1", len(batch))
			}
			if batch, _ := r.c.takeLocked(nil, r.q, batchOf(1000), r.at(0)); len(batch) != 2 {
				t.Errorf("size 1000 took %d tasks, want the 2 queued", len(batch))
			}
		}},
		{"backlog pacing", func(t *testing.T, r *coreRig) {
			w1 := r.join("w1", 100)
			r.join("w2", 100)
			r.o.lease = "other"
			r.join("w3", 100) // idle, but not the lease's
			if !r.c.wantsWorkLocked(nil) {
				t.Fatal("idle workers do not want work")
			}
			r.send(nil, r.at(0), 0, tk(0, 1), tk(1, 1))
			if !r.c.wantsWorkLocked(nil) {
				t.Error("w1 is at its backlog but w2 is idle: the lease wants work")
			}
			r.send(nil, r.at(0), 1, tk(2, 1), tk(3, 1))
			if r.c.wantsWorkLocked(nil) {
				t.Error("every worker of the lease holds its backlog: dispatch must pause")
			}
			r.c.doneLocked(w1, 0, 1, 0, r.at(time.Second))
			if !r.c.wantsWorkLocked(nil) {
				t.Error("w1 drops below its backlog: dispatch must resume")
			}
		}},
		{"a zero-size task, a subnormal elapsed or a subnormal real is no §3.6 observation", func(t *testing.T, r *coreRig) {
			w := r.join("w1", 100)
			// Three zero-size tasks would each observe a rate of 0.
			r.send(nil, r.at(0), 0, tk(1, 0), tk(2, 0), tk(3, 0))
			for id := int32(1); id <= 3; id++ {
				r.c.doneLocked(w, id, 0.01, 0, r.at(time.Second))
			}
			if got := w.believed(); got != 100 {
				t.Errorf("after zero-size tasks, believed rate = %v, want 100", got)
			}
			// A subnormal elapsed would observe +Inf, and the next report
			// would turn that into NaN.
			r.send(nil, r.at(time.Second), 0, tk(4, 100), tk(5, 100))
			r.c.doneLocked(w, 4, 5e-324, 0, r.at(2*time.Second))
			r.c.doneLocked(w, 5, 1, 0, r.at(2*time.Second))
			if got := w.believed(); got != 100 {
				t.Errorf("after a subnormal elapsed, believed rate = %v, want 100", got)
			}
			// A solo task with 50 ms of slack and a subnormal real would
			// scale that slack to a Γc of +Inf.
			r.send(nil, r.at(3*time.Second), 0, tk(6, 100))
			r.c.doneLocked(w, 6, 1, 5e-324, r.at(3*time.Second+50*time.Millisecond))
			if got := w.comm.ValueOr(math.NaN()); !math.IsNaN(got) {
				t.Errorf("after a subnormal real, Γc = %v, want no observation", got)
			}
		}},
		{"a released lease frees its workers and ignores their late done reports", func(t *testing.T, r *coreRig) {
			r.o.lease = "job"
			w := r.join("w1", 100)
			r.o.lease = "other"
			other := r.join("w2", 100)
			r.send("job", r.at(0), 0, tk(1, 10), tk(2, 20))
			r.send("other", r.at(0), 0, tk(3, 30))
			r.c.ReleaseLocked("job")
			if w.Lease != nil || len(w.outstanding) != 0 || w.pending != 0 {
				t.Errorf("released worker: lease %v, outstanding %d, pending %g; want nil, 0, 0",
					w.Lease, len(w.outstanding), float64(w.pending))
			}
			if other.Lease != "other" || len(other.outstanding) != 1 || other.pending != 30 {
				t.Errorf("the other lease's worker: lease %v, outstanding %d, pending %g; want other, 1, 30",
					other.Lease, len(other.outstanding), float64(other.pending))
			}
			r.c.doneLocked(w, 1, 0.1, 0, r.at(time.Second))
			if len(r.o.done) != 0 || w.completed != 0 {
				t.Errorf("a late done reached the owner as %v and counted %d completed; want neither",
					ids(r.o.done), w.completed)
			}
		}},
		{"the latency window keeps the latest dones, oldest first", func(t *testing.T, r *coreRig) {
			const n = latencyWindow + 3
			w := r.join("w1", 100)
			ts := make([]task.Task, n)
			for i := range ts {
				ts[i] = tk(task.ID(i), 1)
			}
			r.send(nil, r.at(0), 0, ts...)
			for i := range n {
				r.c.doneLocked(w, int32(i), 1, 0, r.at(time.Duration(i)*time.Millisecond))
			}
			_, window := r.c.statsLocked(r.at(time.Minute))
			if len(window) != latencyWindow {
				t.Fatalf("window holds %d samples, want %d", len(window), latencyWindow)
			}
			for k, got := range window {
				if want := (time.Duration(n-latencyWindow+k) * time.Millisecond).Seconds(); got != want {
					t.Fatalf("window[%d] = %v, want the latency of done %d, %v", k, got, n-latencyWindow+k, want)
				}
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { row.run(t, newCoreRig(t, 2)) })
	}
}

// TestCoreMethodsInCoreFile keeps the core and the file the determinism
// analyzer checks the same: every poolCore method is declared in
// core.go.
func TestCoreMethodsInCoreFile(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || name == "core.go" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.Name == "poolCore" {
				t.Errorf("%s: method %s of poolCore is outside core.go", fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
	}
}
