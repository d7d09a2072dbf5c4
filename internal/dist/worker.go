package dist

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"pnsched/internal/task"
	"pnsched/internal/units"
)

// WorkerConfig configures one client processor.
type WorkerConfig struct {
	// Name identifies the worker in server logs and statistics; empty
	// selects Name()'s host-pid default.
	Name string
	// Rate is the claimed execution rate in Mflop/s — in production the
	// worker's Linpack rating (internal/linpack). Must be positive.
	Rate units.Rate
	// TimeScale is the number of real seconds slept per simulated
	// processing second when Execute is nil; 0 selects 1 (real time).
	// Small values (e.g. 0.001) compress simulated workloads so demos
	// and tests finish in milliseconds.
	TimeScale float64
	// Execute, when non-nil, replaces the simulated sleep: it performs
	// the task and returns the real time spent, which is divided by
	// TimeScale before being reported as the processing time. Execute is
	// responsible for honouring any cancellation of its own. t.ID is the
	// task's wire ID, which the server assigns per dispatch, not the ID
	// the task was submitted under; t.Size is the submitted size.
	Execute func(t task.Task) time.Duration
}

// Name returns the default worker name, "hostname-pid" — unique enough
// for a fleet of workers started across a cluster by the same operator.
func Name() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// RunWorker connects to a scheduling server at addr and processes
// assigned tasks strictly in FIFO order until the context is cancelled
// (returning ctx.Err()) or the server closes the connection (returning
// nil); a frame the protocol refuses — oversized, malformed, or an
// assign with an invalid task — ends it with an error. Task execution
// is simulated — sleep Size/Rate scaled by TimeScale — unless
// cfg.Execute is set.
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig) error {
	if cfg.Rate <= 0 {
		return fmt.Errorf("dist: worker rate must be positive, got %v", cfg.Rate)
	}
	if cfg.Name == "" {
		cfg.Name = Name()
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err() // cancelled while dialing: plain ctx error
		}
		return fmt.Errorf("dist: worker %s: %w", cfg.Name, err)
	}
	return serveTasks(ctx, conn, cfg)
}

// serveTasks is RunWorker on an established connection, which it
// closes: hello, then tasks read, run and reported until the server
// hangs up or ctx is cancelled.
func serveTasks(ctx context.Context, conn net.Conn, cfg WorkerConfig) error {
	defer conn.Close()
	// Cancellation unblocks the reader and the writer by closing the socket.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	timeScale := cfg.TimeScale
	if timeScale <= 0 {
		timeScale = 1
	}

	w := newFrameWriter(conn)
	err := w.message(&message{Type: msgHello, Name: cfg.Name, Rate: float64(cfg.Rate)})
	if err == nil {
		err = w.bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("dist: worker %s: sending hello: %w", cfg.Name, err)
	}

	q := &workQueue{}
	q.cond = sync.NewCond(&q.mu)

	// Reader: append assignments to the local FIFO queue, through the
	// same bounded framing and validation as every other peer. Runs until
	// the connection dies or a frame is refused, then wakes the
	// processing loop with the error.
	go func() {
		br := bufio.NewReader(conn)
		for {
			line, err := readFrame(br)
			var m *message
			if err == nil {
				m, _, err = decodeWireMessage(line)
			}
			if err != nil {
				q.fail(err, false)
				return
			}
			if m != nil && m.Type == msgAssign {
				q.push(m.Tasks)
			}
		}
	}()

	// Writer: done reports, batched like the pool's assign frames. A
	// failed write ends the worker: the queue is failed and emptied, and
	// later reports are discarded until the processing loop returns and
	// closes the channel.
	reports := make(chan message, 16) // reports in flight; a full queue holds processing back
	defer close(reports)
	go func() {
		var m message // reused: the report is copied in, not allocated per frame
		err := drain(w, reports, func(r message) error {
			m = r
			return w.message(&m)
		})
		if err != nil {
			q.fail(fmt.Errorf("reporting completion: %w", err), true)
			conn.Close()
			for range reports {
			}
		}
	}()

	for {
		t, err := q.pop(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if isClosedErr(err) {
				return nil // server hung up: normal shutdown
			}
			return fmt.Errorf("dist: worker %s: %w", cfg.Name, err)
		}

		simulated := t.Size.TimeOn(cfg.Rate)
		elapsed := simulated
		var real time.Duration
		if cfg.Execute != nil {
			real = cfg.Execute(t)
			elapsed = units.Seconds(real.Seconds() / timeScale)
		} else {
			real = time.Duration(float64(simulated) * timeScale * float64(time.Second))
			if !sleepCtx(ctx, real) {
				return ctx.Err()
			}
		}
		reports <- message{
			Type:    msgDone,
			Task:    int32(t.ID),
			Elapsed: float64(elapsed),
			Real:    real.Seconds(),
		}
	}
}

// workQueue is the worker's local FIFO of assigned-but-unprocessed
// tasks: unbounded, so a slow worker absorbs any batch the scheduler
// hands it without blocking the connection reader.
type workQueue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	tasks []task.Task
	err   error
}

func (q *workQueue) push(ts []task.Task) {
	q.mu.Lock()
	q.tasks = append(q.tasks, ts...)
	q.cond.Broadcast()
	q.mu.Unlock()
}

// fail ends the queue with err; the first failure wins. Tasks already
// queued are still handed out first unless discard is set, for when
// their completion reports could no longer be delivered.
func (q *workQueue) fail(err error, discard bool) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	if discard {
		q.tasks = nil
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// pop blocks until a task is available or the connection has failed.
// Queued tasks are drained before a read failure is reported, so work
// already accepted is finished; if the server is truly gone, a failed
// completion report discards the rest (see fail).
func (q *workQueue) pop(ctx context.Context) (task.Task, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.tasks) == 0 && q.err == nil && ctx.Err() == nil {
		q.cond.Wait()
	}
	if len(q.tasks) > 0 {
		t := q.tasks[0]
		q.tasks = q.tasks[1:]
		return t, nil
	}
	if err := ctx.Err(); err != nil {
		return task.Task{}, err
	}
	return task.Task{}, q.err
}

// sleepCtx sleeps for d, returning false if the context is cancelled
// first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
