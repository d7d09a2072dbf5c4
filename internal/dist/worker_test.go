package dist

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// TestWorkerRefusesBadFrames: the worker reads through the same bounded
// framing and validation as every other peer, so an oversized line or
// an assign with a negative task id ends RunWorker with an error rather
// than a swollen buffer or a bogus task.
func TestWorkerRefusesBadFrames(t *testing.T) {
	for name, c := range map[string]struct {
		line string
		want func(error) bool
	}{
		"oversized line": {`{"type":"assign","pad":"` + strings.Repeat("x", maxFrame) + `"}`,
			func(err error) bool { return errors.Is(err, errFrameTooBig) }},
		"negative id": {`{"type":"assign","tasks":[{"id":-1,"size":5}],"task":0,"elapsed":0}`,
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "invalid task") }},
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			errc := make(chan error, 1)
			go func() { errc <- RunWorker(context.Background(), ln.Addr().String(), WorkerConfig{Name: "w", Rate: 1}) }()
			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := readFrame(bufio.NewReader(conn)); err != nil {
				t.Fatalf("hello: %v", err)
			}
			// The worker may hang up before reading the whole line.
			go conn.Write([]byte(c.line + "\n"))
			select {
			case err := <-errc:
				if !c.want(err) {
					t.Fatalf("RunWorker returned %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("RunWorker still running after a bad frame")
			}
		})
	}
}

// oneBatch hands every queued task to the first worker in one batch.
type oneBatch struct{}

func (oneBatch) Name() string                                { return "ONE" }
func (oneBatch) NextBatchSize(queued int, _ sched.State) int { return queued }
func (oneBatch) ScheduleBatch(batch []task.Task, st sched.State) (sched.Assignment, units.Seconds) {
	asg := sched.NewAssignment(st.M())
	asg[0] = batch
	return asg, 0
}

// TestWorkerTakesBatchOverFrameBound: a fixed batch size is not capped,
// so one assignment can encode past maxFrame. The pool must then split
// it into consecutive assign frames the worker accepts, and every task
// must complete.
func TestWorkerTakesBatchOverFrameBound(t *testing.T) {
	const n = 40_000
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Task{ID: task.ID(i), Size: units.MFlops(1000 + float64(i)/7)}
	}
	if b, _ := appendMessage(nil, &message{Type: msgAssign, Tasks: tasks}); len(b) <= maxFrame+1 {
		t.Fatalf("one assign of %d tasks is only %d bytes: nothing to split", n, len(b))
	}

	o := &coreOwner{}
	p, err := NewPool(PoolConfig{}, o)
	if err != nil {
		t.Fatal(err)
	}
	q := task.NewQueue(n)
	go p.Run(nil, q, oneBatch{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- RunWorker(ctx, ln.Addr().String(), WorkerConfig{Name: "w", Rate: 100,
			Execute: func(task.Task) time.Duration { return 0 }})
	}()
	for deadline := time.Now().Add(10 * time.Second); len(p.Workers()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
	}
	p.Mu.Lock()
	q.PushAll(tasks)
	p.Broadcast()
	p.Mu.Unlock()
	waited := make(chan bool, 1)
	go func() {
		p.Mu.Lock()
		defer p.Mu.Unlock()
		_, expired := p.AwaitLocked(60*time.Second, func() bool { return len(o.done) == n })
		waited <- expired
	}()
	select {
	case err := <-errc:
		t.Fatalf("worker stopped before the batch completed: %v", err)
	case expired := <-waited:
		if expired {
			t.Fatal("batch not completed after 60s")
		}
	}
	p.Mu.Lock()
	if len(o.done) != n || len(o.lost) != 0 || len(o.unsent) != 0 {
		t.Errorf("completed %d, lost %v, unsent %d; want %d and none", len(o.done), o.lost, len(o.unsent), n)
	}
	p.Mu.Unlock()
	cancel()
	if err := <-errc; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("RunWorker: %v", err)
	}
}
