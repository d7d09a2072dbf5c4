package dist

import (
	"bufio"
	"context"
	"log/slog"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnsched/internal/observe"
	"pnsched/internal/task"
	"pnsched/internal/telemetry"
	"pnsched/internal/units"
)

// The three streaming writers — ServeWatch, the pool's writeLoop and the
// worker's done reports — batch what is queued into one write and flush
// when their queue runs empty. Each test below checks both halves on a
// write-counting connection: a burst of n frames arrives complete and in
// order in fewer than n writes, and a lone frame on an idle stream
// arrives with nothing behind it, so nothing is stranded in a buffer.

// countingConn counts the writes made on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipe returns the two ends of an in-memory connection, the first
// counting its writes; a conversation that hangs fails instead.
func pipe(t *testing.T) (*countingConn, net.Conn, *bufio.Reader) {
	t.Helper()
	a, b := net.Pipe()
	deadline := time.Now().Add(10 * time.Second)
	a.SetDeadline(deadline)
	b.SetDeadline(deadline)
	return &countingConn{Conn: a}, b, bufio.NewReader(b)
}

// readMessage reads one control frame.
func readMessage(t *testing.T, br *bufio.Reader) *message {
	t.Helper()
	line, err := readFrame(br)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	m, _, err := decodeWireMessage(line)
	if err != nil || m == nil {
		t.Fatalf("frame %s: %v", line, err)
	}
	return m
}

func TestServeWatchCoalesces(t *testing.T) {
	const n = 100
	// A late subscriber is handed the replay ring in one go: the burst.
	b := NewBroadcaster(n, n)
	defer b.Close()
	for i := range n {
		b.OnDispatch(observe.Dispatch{Proc: i % 4, Task: task.ID(i), At: units.Seconds(i)})
	}
	server, client, br := pipe(t)
	done := make(chan struct{})
	go func() {
		ServeWatch(server, bufio.NewReader(server), b, nil)
		close(done)
	}()
	defer func() { client.Close(); <-done }()

	if m := readMessage(t, br); m.Type != msgWelcome {
		t.Fatalf("first frame %+v, want the welcome", m)
	}
	readDispatch := func(i int) {
		t.Helper()
		line, err := readFrame(br)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		_, ev, err := decodeWireMessage(line)
		if err != nil || ev == nil || ev.Dispatch == nil || ev.Seq != uint64(i+1) || ev.Dispatch.Task != task.ID(i) {
			t.Fatalf("event %d: got %s (%v)", i, line, err)
		}
	}
	for i := range n {
		readDispatch(i)
	}
	if w := server.writes.Load(); w >= n {
		t.Errorf("welcome and %d events took %d writes, want fewer than %d", n, w, n)
	}
	b.OnDispatch(observe.Dispatch{Task: n})
	readDispatch(n)
}

func TestWriteLoopCoalesces(t *testing.T) {
	const n = 12 // within the 16 frames a worker's queue holds
	server, client, br := pipe(t)
	defer client.Close()
	w := &Worker{conn: server, out: make(chan []task.Task, 16)}
	for i := range n {
		w.out <- []task.Task{{ID: task.ID(i), Size: units.MFlops(i)}}
	}
	done := make(chan struct{})
	go func() {
		new(Pool).writeLoop(w)
		close(done)
	}()
	defer func() { close(w.out); <-done }()

	readAssign := func(i int) {
		t.Helper()
		m := readMessage(t, br)
		if m.Type != msgAssign || len(m.Tasks) != 1 || m.Tasks[0].ID != task.ID(i) {
			t.Fatalf("frame %d: %+v, want an assign of task %d", i, m, i)
		}
	}
	for i := range n {
		readAssign(i)
	}
	if got := server.writes.Load(); got >= n {
		t.Errorf("%d assign frames took %d writes, want fewer", n, got)
	}
	w.out <- []task.Task{{ID: n, Size: 1}}
	readAssign(n)
}

func TestWorkerReportsCoalesce(t *testing.T) {
	const n = 12 // within the worker's 16 reports in flight
	worker, server, br := pipe(t)
	defer server.Close()
	executed := make(chan struct{}, n+1)
	errc := make(chan error, 1)
	go func() {
		errc <- serveTasks(context.Background(), worker, WorkerConfig{Name: "w", Rate: 1,
			Execute: func(task.Task) time.Duration {
				executed <- struct{}{}
				return time.Millisecond
			}})
	}()
	if m := readMessage(t, br); m.Type != msgHello {
		t.Fatalf("first frame %+v, want the hello", m)
	}
	assign := func(ids ...int32) {
		t.Helper()
		m := message{Type: msgAssign}
		for _, id := range ids {
			m.Tasks = append(m.Tasks, task.Task{ID: task.ID(id), Size: 1})
		}
		b, _ := appendMessage(nil, &m)
		if _, err := server.Write(b); err != nil {
			t.Fatal(err)
		}
		for range ids {
			<-executed
		}
	}
	readDone := func(i int) {
		t.Helper()
		if m := readMessage(t, br); m.Type != msgDone || m.Task != int32(i) {
			t.Fatalf("report %d: %+v, want done for task %d", i, m, i)
		}
	}

	// Every task runs before the first report is read: the burst.
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	assign(ids...)
	for i := range n {
		readDone(i)
	}
	if got := worker.writes.Load() - 1; got >= n { // less the hello
		t.Errorf("%d done reports took %d writes, want fewer", n, got)
	}
	assign(n)
	readDone(n)

	server.Close()
	if err := <-errc; err != nil {
		t.Errorf("worker after the server hung up: %v", err)
	}
}

// The pool's read loop is the reading half: done reports that arrive
// together are applied together, in one hold of Mu ended by one
// Owner.CommitLocked. The tests below serve one worker's connection
// through serveWorker on a pipe, with tasks 1..n outstanding on it.

// loopRig is the core rig wrapped in a Pool, instrumented on reg.
type loopRig struct {
	*coreRig
	p   *Pool
	reg *telemetry.Registry
}

// readLoopRig returns the rig, the worker's end of the pipe and a
// channel closed once the pool has let the worker go.
func readLoopRig(t *testing.T, n int) (*loopRig, net.Conn, <-chan struct{}) {
	t.Helper()
	c := newCoreRig(t, n)
	r := &loopRig{coreRig: c, reg: telemetry.NewRegistry()}
	r.p = &Pool{poolCore: *c.c, Log: slog.New(slog.DiscardHandler)}
	r.p.Mu.p = r.p
	r.p.cond = sync.NewCond(&r.p.Mu)
	r.p.instrument(r.reg)
	c.c = &r.p.poolCore // the rig's helpers now drive the pool's core
	server, client := net.Pipe()
	deadline := time.Now().Add(10 * time.Second)
	server.SetDeadline(deadline)
	client.SetDeadline(deadline)
	left := make(chan struct{})
	go func() {
		r.p.serveWorker(server, bufio.NewReader(server), "w", 100)
		close(left)
	}()
	t.Cleanup(func() { client.Close(); <-left })
	r.await(t, func() bool { return len(r.p.workers) == 1 })
	r.p.Mu.Lock()
	ts := make([]task.Task, n)
	for i := range ts {
		ts[i] = tk(task.ID(i+1), 1)
	}
	r.send(nil, time.Now(), 0, ts...)
	r.p.Mu.Unlock()
	return r, client, left
}

// await polls, under Mu, until ok holds.
func (r *loopRig) await(t *testing.T, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		r.p.Mu.Lock()
		done := ok()
		r.p.Mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out")
		}
	}
}

// dones is one write carrying a done report for each id.
func dones(ids ...int32) []byte {
	var b []byte
	for _, id := range ids {
		b, _ = appendMessage(b, &message{Type: msgDone, Task: id, Elapsed: 0.1})
	}
	return b
}

func TestReadLoopAppliesBatchBeforeLeave(t *testing.T) {
	r, client, left := readLoopRig(t, 8)
	if _, err := client.Write(dones(1, 2, 3, 4, 5, 6, 7, 8)); err != nil {
		t.Fatal(err)
	}
	client.Close()
	<-left
	if got := ids(r.o.done); !slices.Equal(got, []task.ID{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("owner saw %v done, want tasks 1..8", got)
	}
	if len(r.o.lost) != 1 || len(r.o.lost[0]) != 0 {
		t.Errorf("the leave handed the owner %v, want one empty list: nothing to reissue", r.o.lost)
	}
	if r.o.commits != 1 {
		t.Errorf("8 reports in one write took %d commits, want 1", r.o.commits)
	}
}

func TestReadLoopAppliesBatchBeforeBadFrame(t *testing.T) {
	r, client, left := readLoopRig(t, 3)
	if _, err := client.Write(append(dones(1, 2), "not json\n"...)); err != nil {
		t.Fatal(err)
	}
	<-left
	if got := ids(r.o.done); !slices.Equal(got, []task.ID{1, 2}) {
		t.Errorf("owner saw %v done, want tasks 1 and 2", got)
	}
	if len(r.o.lost) != 1 || !slices.Equal(ids(r.o.lost[0]), []task.ID{3}) || r.o.commits != 1 {
		t.Errorf("lost %v after %d commits, want task 3 lost after 1", r.o.lost, r.o.commits)
	}
	var b strings.Builder
	r.reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), "\npnsched_protocol_decode_errors_total 1\n") {
		t.Errorf("decode errors are not 1:\n%s", b.String())
	}
}

func TestReadLoopAppliesLoneReport(t *testing.T) {
	r, client, _ := readLoopRig(t, 2)
	for i, id := range []int32{1, 2} {
		if _, err := client.Write(dones(id)); err != nil {
			t.Fatal(err)
		}
		// Nothing follows on the stream: the report is applied anyway.
		r.await(t, func() bool { return len(r.o.done) == i+1 && r.o.commits == i+1 })
	}
}
