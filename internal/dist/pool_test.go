package dist_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/jobs"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/telemetry"
	"pnsched/internal/units"
)

// pipeListener hands a runtime the server halves of in-memory pipes:
// the conversation tests drive the real accept loop, handshake and
// read/write goroutines without sockets or ports.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(t *testing.T) *peer {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-time.After(5 * time.Second):
		t.Fatal("runtime is not accepting")
	}
	t.Cleanup(func() { client.Close() })
	client.SetDeadline(time.Now().Add(20 * time.Second)) // a hung conversation fails, not hangs
	return &peer{t: t, conn: client, br: bufio.NewReader(client)}
}

// peer is the test's end of one connection.
type peer struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func (p *peer) send(line string) {
	p.t.Helper()
	if _, err := p.conn.Write([]byte(line + "\n")); err != nil {
		p.t.Fatalf("send %.40q: %v", line, err)
	}
}

func (p *peer) done(wireID int32) {
	p.t.Helper()
	p.send(fmt.Sprintf(`{"type":"done","task":%d,"elapsed":1,"real":0.001}`, wireID))
}

// frame is the subset of the wire envelope the conversation reads.
type frame struct {
	Type  string `json:"type"`
	Proto *struct {
		Major, Minor int
	} `json:"proto"`
	Tasks []struct {
		ID   int32   `json:"id"`
		Size float64 `json:"size"`
	} `json:"tasks"`
	Stats json.RawMessage `json:"stats"`
}

func (p *peer) read() frame {
	p.t.Helper()
	line, err := p.br.ReadBytes('\n')
	if err != nil {
		p.t.Fatalf("read: %v", err)
	}
	var f frame
	if err := json.Unmarshal(line, &f); err != nil {
		p.t.Fatalf("decode %s: %v", line, err)
	}
	return f
}

// closed requires that the runtime hung up without sending anything.
func (p *peer) closed() {
	p.t.Helper()
	if line, err := p.br.ReadBytes('\n'); err == nil {
		p.t.Fatalf("runtime answered %s; want the connection closed", line)
	}
}

// pipeSched sends every batch, in order, to the first worker it is
// offered, in batches of size tasks, and records what the §3.4 budget
// would have been for each.
type pipeSched struct {
	size int

	mu   sync.Mutex
	idle []units.Seconds
	hold func() // run by the next decision before it decides
}

func (s *pipeSched) Name() string { return "PIPE" }

func (s *pipeSched) NextBatchSize(int, sched.State) int { return s.size }

func (s *pipeSched) ScheduleBatch(batch []task.Task, st sched.State) (sched.Assignment, units.Seconds) {
	s.mu.Lock()
	s.idle = append(s.idle, st.TimeUntilFirstIdle())
	hold := s.hold
	s.hold = nil
	s.mu.Unlock()
	if hold != nil {
		hold()
	}
	asg := sched.NewAssignment(st.M())
	asg[0] = batch
	return asg, 0
}

// holdNext makes the next decision run f before it decides.
func (s *pipeSched) holdNext(f func()) {
	s.mu.Lock()
	s.hold = f
	s.mu.Unlock()
}

func (s *pipeSched) budgets() []units.Seconds {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]units.Seconds(nil), s.idle...)
}

// fakeOwner is the least a dist.Owner can be: one queue, no policy.
// It records what the pool tells it.
type fakeOwner struct {
	q        *task.Queue
	finished int
	requeued int
	batches  int
	lost     [][]task.Task
}

func (o *fakeOwner) LeaseLocked(*dist.Worker) any       { return nil }
func (o *fakeOwner) LiveLocked(any) bool                { return true }
func (o *fakeOwner) BatchLocked(any) int                { o.batches++; return o.batches }
func (o *fakeOwner) WireIDLocked(t task.Task) int32     { return int32(t.ID) }
func (o *fakeOwner) UnsentLocked(_ any, ts []task.Task) { o.q.PushAll(ts) }
func (o *fakeOwner) ServeRequest(net.Conn, *dist.Message) bool {
	return false
}
func (o *fakeOwner) DoneLocked(any, string, task.Task, units.Seconds, time.Time) {
	o.finished++
}
func (o *fakeOwner) LostLocked(_ any, _ string, lost []task.Task, _ time.Time) int {
	o.lost = append(o.lost, lost)
	o.requeued += len(lost)
	o.q.PushAll(lost)
	return len(lost)
}
func (o *fakeOwner) CommitLocked() {}
func (o *fakeOwner) StatsLocked(s *dist.Snapshot) {
	s.Completed, s.Reissued, s.Pending, s.Batches = o.finished, o.requeued, o.q.Len(), o.batches
}

// runtime is one owner under test behind a pipeListener.
type runtime struct {
	ln  *pipeListener
	sch *pipeSched
	reg *telemetry.Registry
	// jobs is whether job_* first frames are served.
	jobs   bool
	submit func([]task.Task)
	snap   func() dist.Snapshot
	// wireID is the assign-frame id of the i-th task dispatched.
	wireID func(i int, t task.Task) int32
	// lost is what the pool handed the owner on worker loss, where the
	// owner records it.
	lost func() [][]task.Task
}

// runtimes are the owners of the one pool core: a fake, and the job
// dispatcher in both its shapes — Serve's one open job ("Server") and
// ServeJobs' queue of jobs. Each must hold exactly the same
// conversation.
var runtimes = map[string]func(t *testing.T, batch int, events bool) *runtime{
	"fake": func(t *testing.T, batch int, events bool) *runtime {
		rt := newRuntime(batch)
		o := &fakeOwner{q: task.NewQueue(8)}
		pool := dist.NewPool(rt.config(events), o)
		go pool.Run(nil, o.q, rt.sch)
		rt.serve(t, pool)
		rt.submit = func(ts []task.Task) {
			pool.Mu.Lock()
			o.q.PushAll(ts)
			pool.Broadcast()
			pool.Mu.Unlock()
		}
		rt.snap = pool.Snapshot
		rt.wireID = func(_ int, t task.Task) int32 { return int32(t.ID) }
		rt.lost = func() [][]task.Task {
			pool.Mu.Lock()
			defer pool.Mu.Unlock()
			return o.lost
		}
		return rt
	},
	"Server": func(t *testing.T, batch int, events bool) *runtime {
		rt := newRuntime(batch)
		d, err := jobs.New(jobs.Config{Open: rt.sch, PoolConfig: rt.config(events)})
		if err != nil {
			t.Fatal(err)
		}
		rt.serve(t, d)
		rt.submit = func(ts []task.Task) {
			if err := d.Append(ts); err != nil {
				t.Error(err)
			}
		}
		rt.snap = d.Snapshot
		rt.wireID = func(i int, _ task.Task) int32 { return int32(i + 1) }
		return rt
	},
	"Dispatcher": func(t *testing.T, batch int, events bool) *runtime {
		rt := newRuntime(batch)
		d, err := jobs.New(jobs.Config{
			NewScheduler: func(json.RawMessage) (sched.Batch, error) { return rt.sch, nil },
			PoolConfig:   rt.config(events),
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.serve(t, d)
		rt.jobs = true
		rt.submit = func(ts []task.Task) {
			if _, err := d.Submit(dist.JobSubmission{Tasks: ts}); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}
		rt.snap = d.Snapshot
		rt.wireID = func(i int, _ task.Task) int32 { return int32(i + 1) }
		return rt
	},
}

func newRuntime(batch int) *runtime {
	return &runtime{
		ln:  newPipeListener(),
		sch: &pipeSched{size: batch},
		reg: telemetry.NewRegistry(),
	}
}

func (rt *runtime) config(events bool) dist.PoolConfig {
	cfg := dist.PoolConfig{Metrics: rt.reg}
	if events {
		cfg.Events = dist.NewBroadcaster(0, 0)
	}
	return cfg
}

func (rt *runtime) serve(t *testing.T, r interface {
	Serve(net.Listener) error
	Close() error
}) {
	go r.Serve(rt.ln)
	t.Cleanup(func() { r.Close() })
}

// await polls the runtime's snapshot until ok accepts it.
func (rt *runtime) await(t *testing.T, what string, ok func(dist.Snapshot) bool) dist.Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := rt.snap()
		if ok(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; snapshot %+v", what, s)
		}
		time.Sleep(time.Millisecond)
	}
}

// worker connects a worker and waits until the runtime counts it.
func (rt *runtime) worker(t *testing.T, name string) *peer {
	t.Helper()
	before := len(rt.snap().Workers)
	w := rt.ln.dial(t)
	w.send(fmt.Sprintf(`{"type":"hello","name":%q,"rate":100}`, name))
	rt.await(t, name+" to register", func(s dist.Snapshot) bool { return len(s.Workers) == before+1 })
	return w
}

// metric reads one unlabelled pool series, the same under every owner.
func (rt *runtime) metric(t *testing.T, name string) string {
	t.Helper()
	var b strings.Builder
	if err := rt.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("%s not exported", name)
	return ""
}

// decodeErrors reads pnsched_protocol_decode_errors_total.
func (rt *runtime) decodeErrors(t *testing.T) string {
	t.Helper()
	return rt.metric(t, "pnsched_protocol_decode_errors_total")
}

func tasksOf(ids []task.ID, size func(i int) units.MFlops) []task.Task {
	ts := make([]task.Task, len(ids))
	for i, id := range ids {
		ts[i] = task.Task{ID: id, Size: size(i)}
	}
	return ts
}

// TestPoolConversation drives the worker conversation — the one copy
// of it — through each owner over in-memory pipes. Every row must read
// the same whichever owner sits on the pool; the only sanctioned
// difference is which extra first frames the owner serves.
func TestPoolConversation(t *testing.T) {
	rows := []struct {
		name   string
		batch  int  // tasks per batch decision
		events bool // event streaming enabled
		run    func(t *testing.T, rt *runtime)
	}{
		{"hello assign done", 8, true, func(t *testing.T, rt *runtime) {
			w := rt.worker(t, "w1")
			ts := tasksOf([]task.ID{0, 1, 2}, func(i int) units.MFlops { return units.MFlops(10 * (i + 1)) })
			rt.submit(ts)
			f := w.read()
			if f.Type != "assign" || len(f.Tasks) != 3 {
				t.Fatalf("first frame %+v, want an assign of 3 tasks", f)
			}
			for i, wt := range f.Tasks {
				if wt.ID != rt.wireID(i, ts[i]) || wt.Size != float64(ts[i].Size) {
					t.Errorf("assigned task %d = %+v, want id %d size %v", i, wt, rt.wireID(i, ts[i]), ts[i].Size)
				}
			}
			// A duplicate and an unknown id ride between the real
			// reports; both are ignored.
			w.done(f.Tasks[0].ID)
			w.done(f.Tasks[0].ID)
			w.done(9999)
			w.done(f.Tasks[1].ID)
			w.done(f.Tasks[2].ID)
			s := rt.await(t, "3 completions", func(s dist.Snapshot) bool { return s.Completed >= 3 && s.Running == 0 })
			if s.Completed != 3 || s.Workers[0].Completed != 3 || s.Latency.Samples != 3 {
				t.Errorf("after 3 dones + duplicate + unknown: %+v", s)
			}
		}},
		{"fractional sizes leave a drained worker idle", 6, false, func(t *testing.T, rt *runtime) {
			// Defect (a): these sizes sum, and un-sum in this order, to
			// 5.55e-17 in float64 — a residue that used to make the
			// drained worker look loaded and zero every later GA budget.
			sizes := []units.MFlops{0.1, 0.2, 0.3, 0.7, 1.1, 2.3}
			w := rt.worker(t, "w1")
			first := tasksOf([]task.ID{0, 1, 2, 3, 4, 5}, func(i int) units.MFlops { return sizes[i] })
			rt.submit(first)
			f := w.read()
			for _, i := range []int{3, 0, 5, 1, 4, 2} {
				w.done(f.Tasks[i].ID)
			}
			rt.await(t, "first batch done", func(s dist.Snapshot) bool { return s.Completed == 6 })
			rt.submit(tasksOf([]task.ID{6, 7}, func(int) units.MFlops { return 0.9 }))
			w.read()
			got := rt.sch.budgets()
			if len(got) != 2 || !math.IsInf(float64(got[1]), 1) {
				t.Errorf("TimeUntilFirstIdle per batch = %v, want +Inf for the second (nothing is loaded)", got)
			}
		}},
		{"malformed frame drops the worker, tasks lost in id order", 8, false, func(t *testing.T, rt *runtime) {
			dropAndReissue(t, rt, "this is not json", true)
		}},
		{"oversized frame drops the worker, tasks lost in id order", 8, false, func(t *testing.T, rt *runtime) {
			// The frame bound trips in the reader, before the decoder:
			// a read error, which has never been counted as a decode
			// error.
			dropAndReissue(t, rt, `{"type":"done","pad":"`+strings.Repeat("x", 1<<20)+`"}`, false)
		}},
		{"wedged writer is hung up on, not waited for", 1, false, func(t *testing.T, rt *runtime) {
			// One task per batch and a worker that reports but never
			// reads: the default backlog lets four assign frames out,
			// the first stuck in a pipe write, and every done frees one
			// slot for one more. When the 16-frame queue is full the
			// pool must close the connection rather than block dispatch.
			const n = 100
			ids := make([]task.ID, n)
			for i := range ids {
				ids[i] = task.ID(i)
			}
			ts := tasksOf(ids, func(int) units.MFlops { return 5 })
			w := rt.worker(t, "deaf")
			rt.submit(ts)
			hungUp := func(s dist.Snapshot) bool { return len(s.Workers) == 0 }
			for i := 0; i < n; i++ {
				s := rt.await(t, fmt.Sprintf("task %d dispatched", i), func(s dist.Snapshot) bool {
					return hungUp(s) || s.Completed+s.Running > i
				})
				if hungUp(s) {
					break
				}
				if _, err := w.conn.Write([]byte(fmt.Sprintf(`{"type":"done","task":%d,"elapsed":1}`+"\n", rt.wireID(i, ts[i])))); err != nil {
					break // hung up mid-write
				}
			}
			s := rt.await(t, "the deaf worker to be dropped", hungUp)
			if s.Reissued == 0 || s.Completed >= n {
				t.Errorf("after the hang-up: %+v, want its in-flight tasks reissued", s)
			}
			// Dispatch was never blocked: a second worker gets work.
			if f := rt.worker(t, "w2").read(); f.Type != "assign" {
				t.Errorf("second worker got %+v, want an assign", f)
			}
		}},
		{"a batch for a worker that left mid-decision is requeued, not reissued", 8, false, func(t *testing.T, rt *runtime) {
			// Reissued means lost by a worker, in the snapshot as in
			// pnsched_tasks_reissued_total: tasks that never left the
			// pool are neither.
			started, release := make(chan struct{}), make(chan struct{})
			rt.sch.holdNext(func() { close(started); <-release })
			w := rt.worker(t, "w1")
			rt.submit(tasksOf([]task.ID{0, 1, 2}, func(int) units.MFlops { return 10 }))
			<-started // deciding, with w1 in the snapshot
			w.conn.Close()
			rt.await(t, "w1 to leave", func(s dist.Snapshot) bool { return len(s.Workers) == 0 })
			close(release)
			s := rt.await(t, "the batch back in the queue", func(s dist.Snapshot) bool { return s.Pending == 3 })
			if metric := rt.metric(t, "pnsched_tasks_reissued_total"); s.Reissued != 0 || metric != "0" {
				t.Errorf("reissued: snapshot %d, metric %s; want 0 for a batch never sent", s.Reissued, metric)
			}
			if f := rt.worker(t, "w2").read(); len(f.Tasks) != 3 {
				t.Errorf("replacement was assigned %+v, want the 3 requeued tasks", f)
			}
		}},
		{"non-handshake first frame is rejected and counted", 8, false, func(t *testing.T, rt *runtime) {
			before := rt.decodeErrors(t)
			c := rt.ln.dial(t)
			c.send(`{"type":"done","task":1,"elapsed":1}`)
			c.closed()
			if after := rt.decodeErrors(t); after == before {
				t.Errorf("decode errors stayed at %s after a rejected first frame", after)
			}
		}},
		{"job frames are the owner's to serve", 8, false, func(t *testing.T, rt *runtime) {
			c := rt.ln.dial(t)
			c.send(`{"type":"job_status"}`)
			if !rt.jobs {
				c.closed()
				return
			}
			if f := c.read(); f.Type != "job_status" || f.Proto == nil {
				t.Errorf("job_status reply %+v", f)
			}
		}},
		{"watch is rejected when events are off", 8, false, func(t *testing.T, rt *runtime) {
			c := rt.ln.dial(t)
			c.send(`{"type":"watch","proto":{"major":1,"minor":0}}`)
			c.closed()
		}},
		{"watch is welcomed when events are on", 8, true, func(t *testing.T, rt *runtime) {
			c := rt.ln.dial(t)
			c.send(`{"type":"watch","proto":{"major":1,"minor":0}}`)
			if f := c.read(); f.Type != "welcome" || f.Proto == nil || f.Proto.Major != dist.ProtoMajor {
				t.Errorf("watch answered with %+v, want a versioned welcome", f)
			}
		}},
		{"stats and trace are one-shot", 8, false, func(t *testing.T, rt *runtime) {
			for _, typ := range []string{"stats", "trace"} {
				c := rt.ln.dial(t)
				c.send(fmt.Sprintf(`{"type":%q}`, typ))
				f := c.read()
				if f.Type != typ || f.Proto == nil || f.Proto.Minor != dist.ProtoMinor {
					t.Errorf("%s reply %+v, want one versioned %s frame", typ, f, typ)
				}
				if typ == "stats" && len(f.Stats) == 0 {
					t.Errorf("stats reply carries no snapshot")
				}
				c.closed()
			}
		}},
	}
	for name, build := range runtimes {
		for _, row := range rows {
			t.Run(name+"/"+row.name, func(t *testing.T) {
				t.Parallel()
				row.run(t, build(t, row.batch, row.events))
			})
		}
	}
}

// dropAndReissue gives a worker four tasks, has it send a frame the
// pool must refuse, and requires the worker gone, the refusal counted
// when it is a decode error, and all four tasks handed back in task-ID
// order — seen by a replacement worker, and by the fake owner directly.
func dropAndReissue(t *testing.T, rt *runtime, bad string, counted bool) {
	t.Helper()
	w := rt.worker(t, "w1")
	ids := []task.ID{5, 3, 9, 1}
	sizeOf := func(id task.ID) float64 { return float64(id)*10 + 0.5 }
	rt.submit(tasksOf(ids, func(i int) units.MFlops { return units.MFlops(sizeOf(ids[i])) }))
	w.read()
	before := rt.decodeErrors(t)
	w.send(bad)
	s := rt.await(t, "the worker to be dropped", func(s dist.Snapshot) bool { return len(s.Workers) == 0 })
	if s.Reissued != 4 || s.Pending != 4 || s.Completed != 0 {
		t.Errorf("after the drop: %+v, want 4 reissued and pending", s)
	}
	if after := rt.decodeErrors(t); (after != before) != counted {
		t.Errorf("decode errors went %s → %s; counted should be %v", before, after, counted)
	}
	if rt.lost != nil {
		lost := rt.lost()
		if len(lost) != 1 || len(lost[0]) != 4 {
			t.Fatalf("owner was handed %v, want one list of 4", lost)
		}
		for i, id := range []task.ID{1, 3, 5, 9} {
			if lost[0][i].ID != id {
				t.Errorf("lost[%d] = task %d, want %d (ID order)", i, lost[0][i].ID, id)
			}
		}
	}
	f := rt.worker(t, "w2").read()
	if len(f.Tasks) != 4 {
		t.Fatalf("replacement was assigned %+v, want the 4 reissued tasks", f)
	}
	for i, id := range []task.ID{1, 3, 5, 9} {
		if f.Tasks[i].Size != sizeOf(id) {
			t.Errorf("reissued task %d has size %v, want task %d's %v", i, f.Tasks[i].Size, id, sizeOf(id))
		}
	}
}
