package pnsched

import (
	"context"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/jobs"
)

// ServerStats is a point-in-time summary of a live server.
type ServerStats struct {
	// Submitted, Completed and Reissued count tasks over the server's
	// lifetime; Reissued counts tasks rescheduled after the worker they
	// were sent to disconnected — the pnsched_tasks_reissued_total
	// series. A batch decided for a worker that left before it was sent
	// goes back to the queue without counting.
	Submitted, Completed, Reissued int
	// Workers is the number of currently connected workers, Watchers
	// the number of currently subscribed event-stream clients.
	Workers, Watchers int
}

// Server is a live scheduling server started with Serve — the paper's
// §3 dedicated scheduling processor as a public API: the job
// dispatcher running one open job, which never finishes and takes
// every submitted task. Workers connect with RunWorker (or the
// pnworker binary); remote observers connect with Watch. All methods
// are safe for concurrent use.
type Server struct {
	service
	traces *dist.TraceRecorder
}

// Serve starts the live counterpart of Run: it constructs the batch
// scheduler the spec names via the registry, binds a TCP listener, and
// schedules every submitted task over the workers that connect, until
// Close. The same Spec vocabulary and Validate rules as Run apply;
// immediate-mode schedulers (EF, LL, RR, MET, OLB, KPB), which have no
// batch form for the server to drive, are additionally rejected.
//
// Every event source is wired to the same places Run wires them, plus
// the wire: GA generation/migration/budget events from the scheduler
// and batch-decided/dispatch events from the server reach the Spec's
// observer, any WithServeObserver observer, and — as versioned event
// frames — every remote client subscribed with Watch.
//
// Cancelling ctx closes the server, releasing workers, watchers and
// blocked Wait calls.
func Serve(ctx context.Context, spec Spec, opts ...ServeOption) (*Server, error) {
	so := commonOpts{addr: "127.0.0.1:0"}
	for _, o := range opts {
		o(&so)
	}

	// The trace recorder sits in the local chain so both the scheduler's
	// GA-run events and the pool's batch events reach it.
	s := &Server{traces: dist.NewTraceRecorder()}
	pool, full := s.wire(&so, spec.observer, s.traces)
	spec.observer = full
	batch, err := newBatch(spec, "Serve needs")
	if err != nil {
		return nil, err
	}
	pool.Traces = s.traces
	if s.d, err = jobs.New(jobs.Config{Open: batch, PoolConfig: pool}); err != nil {
		return nil, err
	}
	if err := s.start(ctx, &so); err != nil {
		return nil, err
	}
	return s, nil
}

// Traces returns the server's retained per-batch decision traces,
// oldest first: for every recent batch decision, the scheduler, batch
// size, generation-best makespan curve, evaluation and §3.4 budget
// ledger, migration count, and wall time. The same records are served
// over the wire to FetchTraces clients and `pnserver -trace`.
func (s *Server) Traces() []DecisionTrace { return s.traces.Traces() }

// Submit appends tasks to the server's unscheduled FCFS queue. It may
// be called any number of times, including while earlier submissions
// are still processing; submissions after Close are dropped. A task
// with a negative ID, or a negative, NaN or infinite size, rejects the
// whole submission with an error and nothing is queued.
func (s *Server) Submit(tasks []Task) error { return s.d.Append(tasks) }

// Wait blocks until every submitted task has completed (at least one
// task must have been submitted), the timeout elapses, or the server
// is closed (ErrServerClosed). A non-positive timeout waits
// indefinitely.
func (s *Server) Wait(timeout time.Duration) error { return s.d.WaitOpen(timeout) }

// Stats reports the server's lifetime counters and current
// connections.
func (s *Server) Stats() ServerStats {
	snap := s.d.Snapshot()
	return ServerStats{
		Submitted: snap.Submitted,
		Completed: snap.Completed,
		Reissued:  snap.Reissued,
		Workers:   len(snap.Workers),
		Watchers:  len(snap.Watchers),
	}
}

// FetchStats requests a one-shot stats snapshot from a live scheduling
// server at addr — the client side of Server.Snapshot, used by
// `pnserver -stats`. The server must speak protocol 1.1 or newer;
// older servers reject the request, which surfaces as an error.
func FetchStats(ctx context.Context, addr string) (ServerSnapshot, error) {
	return dist.FetchStats(ctx, addr)
}

// FetchTraces requests a live server's retained decision traces over
// the wire — the client side of Server.Traces, used by `pnserver
// -trace`. The server must speak protocol 1.2 or newer; older servers
// reject the request, which surfaces as an error.
func FetchTraces(ctx context.Context, addr string) ([]DecisionTrace, error) {
	return dist.FetchTraces(ctx, addr)
}

// RunWorker connects a worker processor to a scheduling server at addr
// and processes assigned tasks strictly in FIFO order until ctx is
// cancelled (returning ctx.Err()) or the server closes the connection
// (returning nil). Task execution is simulated — sleep Size/Rate
// scaled by cfg.TimeScale — unless cfg.Execute is set. It is the
// library form of the pnworker binary.
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig) error {
	return dist.RunWorker(ctx, addr, cfg)
}

// WorkerName returns the default worker identity, "hostname-pid".
func WorkerName() string { return dist.Name() }

// Watch subscribes to a live server's event stream over the wire: the
// same typed Observer events an in-process observer sees — batch
// decided, GA generation best, island migration, dispatch, budget stop
// — delivered to o in server publication order. The dial and
// handshake happen synchronously; after a nil return, events flow on a
// background goroutine until the server closes, the connection fails,
// or ctx is cancelled (Watcher.Wait reports which).
//
// The server never blocks on a slow watcher: frames that overflow the
// client's bounded server-side queue are dropped and counted, and the
// cumulative count is reported on every subsequent frame
// (Watcher.Dropped).
func Watch(ctx context.Context, addr string, o Observer) (*Watcher, error) {
	return dist.WatchEvents(ctx, addr, o)
}
