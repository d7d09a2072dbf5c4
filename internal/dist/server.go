package dist

import (
	"errors"
	"fmt"
	"net"
	"time"

	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// ErrServerClosed is returned by Wait when the server is closed before
// all submitted tasks complete.
var ErrServerClosed = errors.New("dist: server closed")

// ServerConfig configures a scheduling server.
type ServerConfig struct {
	// Scheduler maps each batch of unscheduled tasks onto the connected
	// workers. Required. If it also implements sched.BatchSizer (as the
	// PN scheduler does), it chooses its own batch sizes per §3.7;
	// otherwise sched.DefaultBatchSize is used.
	Scheduler sched.Batch
	// Traces, when non-nil, is the recorder answering the trace wire
	// request (protocol 1.2) with recent per-batch decision traces.
	// The caller is responsible for wiring the same recorder into the
	// observer chain the scheduler and server emit into; the server
	// only reads it.
	Traces *TraceRecorder
	PoolConfig
}

// Server is the dedicated scheduling processor of the paper's §3,
// serving a TCP endpoint that pnworker clients connect to: the Pool
// owner with one implicit, unbounded, never-finishing stream of work —
// every worker carries the nil lease and every task joins one FCFS
// queue. Create with NewServer; all methods are safe for concurrent
// use.
type Server struct {
	pool *Pool

	// Guarded by pool.Mu.
	queue     *task.Queue // unscheduled FCFS queue (incl. reissues)
	submitted int
	completed int
	reissued  int
	batches   int // committed batch-scheduling decisions
}

// NewServer returns a server driving the given scheduler. It does not
// listen yet; call Serve.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Scheduler == nil {
		return nil, errors.New("dist: ServerConfig.Scheduler is required")
	}
	s := &Server{queue: task.NewQueue(64)}
	pool, err := NewPool(cfg.PoolConfig, s)
	if err != nil {
		return nil, err
	}
	pool.traces = cfg.Traces
	s.pool = pool
	go pool.Run(nil, s.queue, cfg.Scheduler)
	return s, nil
}

// Serve accepts worker connections on ln until Close. It takes ownership
// of the listener. It returns nil when the server is closed.
func (s *Server) Serve(ln net.Listener) error { return s.pool.Serve(ln) }

// Submit appends tasks to the unscheduled FCFS queue. Tasks are
// scheduled onto workers in batches as capacity and the batch sizer
// allow; Submit may be called any number of times, including while
// earlier submissions are still processing. Submissions after Close are
// dropped.
func (s *Server) Submit(ts []task.Task) {
	if len(ts) == 0 {
		return
	}
	s.pool.Mu.Lock()
	defer s.pool.Mu.Unlock()
	if s.pool.closed {
		return
	}
	s.submitted += len(ts)
	s.queue.PushAll(ts)
	s.pool.cond.Broadcast()
}

// Wait blocks until every submitted task has completed (at least one
// task must have been submitted), the timeout elapses, or the server is
// closed. A non-positive timeout means wait indefinitely.
func (s *Server) Wait(timeout time.Duration) error {
	s.pool.Mu.Lock()
	defer s.pool.Mu.Unlock()
	closed, expired := s.pool.AwaitLocked(timeout, func() bool { return s.submitted > 0 && s.completed == s.submitted })
	switch {
	case closed:
		return ErrServerClosed
	case expired:
		return fmt.Errorf("dist: wait: %d/%d tasks complete after %v",
			s.completed, s.submitted, timeout)
	}
	return nil
}

// Stats reports lifetime counters: tasks submitted, tasks completed,
// tasks reissued after losing their worker, and the number of currently
// connected workers.
func (s *Server) Stats() (submitted, completed, reissued, workers int) {
	s.pool.Mu.Lock()
	defer s.pool.Mu.Unlock()
	return s.submitted, s.completed, s.reissued, len(s.pool.workers)
}

// Workers returns a snapshot of the connected workers.
func (s *Server) Workers() []WorkerStatus { return s.pool.Workers() }

// Snapshot returns a point-in-time operational view of the server:
// uptime, cumulative counters, queue depths, the per-worker pool,
// attached watchers, and dispatch-latency quantiles. It is the
// in-process form of what the stats wire message serves to remote
// clients.
func (s *Server) Snapshot() Snapshot { return s.pool.Snapshot() }

// Close shuts the server down: the listener is closed, every worker and
// watch connection is dropped, and blocked Wait calls return
// ErrServerClosed. Close is idempotent.
func (s *Server) Close() error { return s.pool.Close() }

// The Owner methods: one lease (nil), one queue, nothing to decide.

// LeaseLocked implements Owner: every worker serves the one queue.
func (s *Server) LeaseLocked(*Worker) any { return nil }

// LiveLocked implements Owner: the server's work never finishes.
func (s *Server) LiveLocked(any) bool { return true }

// BatchLocked implements Owner.
func (s *Server) BatchLocked(any) int {
	s.batches++
	return s.batches
}

// WireIDLocked implements Owner: one workload, so a task's own ID is
// unambiguous on the wire.
func (s *Server) WireIDLocked(t task.Task) int32 { return int32(t.ID) }

// DoneLocked implements Owner.
func (s *Server) DoneLocked(any, string, task.Task, units.Seconds, time.Time) []JobEvent {
	s.completed++
	return nil
}

// LostLocked implements Owner: everything a departed worker held goes
// back on the queue, without limit.
func (s *Server) LostLocked(_ any, _ string, lost []task.Task, _ time.Time) (int, []JobEvent) {
	s.UnsentLocked(nil, lost)
	return len(lost), nil
}

// UnsentLocked implements Owner: requeued and counted as reissued.
func (s *Server) UnsentLocked(_ any, ts []task.Task) {
	s.reissued += len(ts)
	s.queue.PushAll(ts)
}

// StatsLocked implements Owner.
func (s *Server) StatsLocked(snap *Snapshot) {
	snap.Submitted = s.submitted
	snap.Completed = s.completed
	snap.Reissued = s.reissued
	snap.Pending = s.queue.Len()
	snap.Batches = s.batches
}

// ServeRequest implements Owner: a plain server has no job layer, so
// job_* first frames are rejected like any other non-handshake.
func (s *Server) ServeRequest(net.Conn, *Message) bool { return false }
