package dist

import (
	"bufio"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pnsched/internal/observe"
	"pnsched/internal/task"
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
