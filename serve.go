package pnsched

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/observe"
	"pnsched/internal/telemetry"
)

// ServeOption adjusts one Serve invocation; see the WithServe* and
// WithListen* functions.
type ServeOption func(*serveOpts)

type serveOpts struct{ commonOpts }

// commonOpts are the settings Serve and ServeJobs share, behind their
// separately named options.
type commonOpts struct {
	addr      string
	ln        net.Listener
	log       *slog.Logger
	observer  Observer
	nu        float64
	backlog   int
	queue     int
	replay    int
	adminAddr string
}

// poolConfig lowers the shared options onto the worker pool's
// configuration, with local as the in-process observer chain.
func (o *commonOpts) poolConfig(local Observer, events *dist.Broadcaster, reg *telemetry.Registry) dist.PoolConfig {
	return dist.PoolConfig{
		Log:      o.log,
		Observer: local,
		Events:   events,
		Metrics:  reg,
		Nu:       o.nu,
		Backlog:  o.backlog,
	}
}

// service is what a live Server and JobService share: the bound
// listener, the event broadcaster, the optional admin endpoint, the
// context watcher and the idempotent Close around the runtime they
// front.
type service struct {
	rt interface {
		Serve(net.Listener) error
		Close() error
	}
	events *dist.Broadcaster
	addr   net.Addr
	stop   func() bool // detaches the context watcher

	adminLn  net.Listener // nil without an admin address
	adminSrv *http.Server

	closeOnce sync.Once
	closeErr  error
	serveErr  chan error
}

// start binds the listener (and the admin endpoint, serving reg) and
// begins serving s.rt; on failure everything opened so far, s.rt
// included, is closed again.
func (s *service) start(ctx context.Context, o *commonOpts, reg *telemetry.Registry) error {
	ln := o.ln
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", o.addr); err != nil {
			s.rt.Close()
			return err
		}
	}
	s.addr = ln.Addr()
	s.serveErr = make(chan error, 1)
	if o.adminAddr != "" {
		adminLn, err := net.Listen("tcp", o.adminAddr)
		if err != nil {
			s.rt.Close()
			ln.Close()
			return fmt.Errorf("pnsched: admin listener: %w", err)
		}
		s.adminLn = adminLn
		s.adminSrv = &http.Server{Handler: telemetry.AdminMux(reg, nil)}
		go s.adminSrv.Serve(adminLn)
	}
	go func() { s.serveErr <- s.rt.Serve(ln) }()
	if ctx != nil && ctx.Done() != nil {
		s.stop = context.AfterFunc(ctx, func() { s.close() })
	}
	return nil
}

func (s *service) adminAddr() net.Addr {
	if s.adminLn == nil {
		return nil
	}
	return s.adminLn.Addr()
}

func (s *service) close() error {
	s.closeOnce.Do(func() {
		if s.stop != nil {
			s.stop()
		}
		if s.adminSrv != nil {
			s.adminSrv.Close()
		}
		s.closeErr = s.rt.Close()
		if err := <-s.serveErr; err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// WithListenAddr sets the TCP address the server listens on. The
// default is "127.0.0.1:0" — an ephemeral loopback port, read back
// with Server.Addr — so tests and single-machine demos need no
// configuration; production servers pass ":9000"-style addresses.
func WithListenAddr(addr string) ServeOption { return func(o *serveOpts) { o.addr = addr } }

// WithListener hands Serve an existing listener instead of an address;
// the server takes ownership and closes it on Close.
func WithListener(ln net.Listener) ServeOption { return func(o *serveOpts) { o.ln = ln } }

// WithServeLog routes the server's structured progress logging (worker
// joins and leaves, batch decisions, reissues, watch subscriptions,
// protocol rejections) to a slog logger as levelled key-value records.
// The default is silent.
func WithServeLog(log *slog.Logger) ServeOption {
	return func(o *serveOpts) { o.log = log }
}

// WithAdminAddr additionally serves an HTTP admin endpoint on the
// given address (e.g. "127.0.0.1:9090"):
//
//	/metrics       runtime telemetry in Prometheus text format —
//	               task/batch counters, queue depths, the
//	               dispatch-latency and batch-wall histograms, GA
//	               generation/evaluation/budget counters, per-worker
//	               and per-watcher series
//	/healthz       liveness probe (200 "ok")
//	/debug/pprof/  the standard Go profiling handlers
//
// The admin listener binds when Serve is called (a bind failure fails
// Serve) and closes with the server; read the bound address back with
// Server.AdminAddr. The default is no admin endpoint; metrics are
// still collected either way.
func WithAdminAddr(addr string) ServeOption {
	return func(o *serveOpts) { o.adminAddr = addr }
}

// WithServeObserver delivers the run's events to an in-process
// observer, in addition to any observer already attached to the Spec
// and to every remote watch client.
func WithServeObserver(obs Observer) ServeOption { return func(o *serveOpts) { o.observer = obs } }

// WithSmoothing sets the §3.6 exponential-smoothing factor ν for
// observed worker rates and link overheads (0 selects the paper's
// 0.5).
func WithSmoothing(nu float64) ServeOption { return func(o *serveOpts) { o.nu = nu } }

// WithBacklog sets the per-worker outstanding-task threshold that
// paces dispatch (0 selects the default of 4).
func WithBacklog(n int) ServeOption { return func(o *serveOpts) { o.backlog = n } }

// WithEventQueue sets the per-watch-client event buffer, in frames.
// A client that falls further behind than this loses frames — counted
// in its stream's Dropped field, never blocking the scheduler. 0
// selects the default (dist.DefaultEventQueue, 256).
func WithEventQueue(frames int) ServeOption { return func(o *serveOpts) { o.queue = frames } }

// WithEventReplay sets the catch-up ring, in frames: a watcher that
// subscribes mid-run first receives up to this many of the most recent
// event frames — with their original sequence numbers, seamlessly
// followed by the live stream — before going live. 0 selects the
// default (dist.DefaultEventReplay, 64); a negative value disables
// catch-up. The ring never exceeds the event queue size.
func WithEventReplay(frames int) ServeOption { return func(o *serveOpts) { o.replay = frames } }

// ServerStats is a point-in-time summary of a live server.
type ServerStats struct {
	// Submitted, Completed and Reissued count tasks over the server's
	// lifetime; Reissued counts tasks rescheduled after their worker
	// disconnected.
	Submitted, Completed, Reissued int
	// Workers is the number of currently connected workers, Watchers
	// the number of currently subscribed event-stream clients.
	Workers, Watchers int
}

// Server is a live scheduling server started with Serve — the paper's
// §3 dedicated scheduling processor as a public API. Workers connect
// with RunWorker (or the pnworker binary); remote observers connect
// with Watch. All methods are safe for concurrent use.
type Server struct {
	service
	srv    *dist.Server
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
	so := serveOpts{commonOpts{addr: "127.0.0.1:0"}}
	for _, o := range opts {
		o(&so)
	}

	events := dist.NewBroadcaster(so.queue, so.replay)
	reg := telemetry.NewRegistry()
	traces := dist.NewTraceRecorder(0)
	// The scheduler publishes its GA-level events straight into the
	// broadcaster (and the in-process observers); the server's own
	// events reach the broadcaster via ServerConfig.Events. The trace
	// recorder and the GA metrics observer sit in the local chain so
	// both GA-run and server-batch events reach them.
	local := observe.Multi(spec.observer, so.observer, traces, dist.NewMetricsObserver(reg))
	spec.observer = observe.Multi(local, events)
	sch, err := New(spec)
	if err != nil {
		return nil, err
	}
	batch, ok := sch.(BatchScheduler)
	if !ok {
		return nil, fmt.Errorf("pnsched: scheduler %s is immediate-mode; Serve needs a batch scheduler", sch.Name())
	}
	srv, err := dist.NewServer(dist.ServerConfig{
		Scheduler:  batch,
		Traces:     traces,
		PoolConfig: so.poolConfig(local, events, reg),
	})
	if err != nil {
		return nil, err
	}
	s := &Server{service: service{rt: srv, events: events}, srv: srv, traces: traces}
	if err := s.start(ctx, &so.commonOpts, reg); err != nil {
		return nil, err
	}
	return s, nil
}

// Addr returns the server's listening address — with the default
// ephemeral port, the address workers and watchers should dial.
func (s *Server) Addr() net.Addr { return s.addr }

// AdminAddr returns the admin HTTP endpoint's bound address, or nil
// when the server was started without WithAdminAddr.
func (s *Server) AdminAddr() net.Addr { return s.adminAddr() }

// Traces returns the server's retained per-batch decision traces,
// oldest first: for every recent batch decision, the scheduler, batch
// size, generation-best makespan curve, evaluation and §3.4 budget
// ledger, migration count, and wall time. The same records are served
// over the wire to FetchTraces clients and `pnserver -trace`.
func (s *Server) Traces() []DecisionTrace { return s.traces.Traces() }

// Submit appends tasks to the server's unscheduled FCFS queue. It may
// be called any number of times, including while earlier submissions
// are still processing; submissions after Close are dropped.
func (s *Server) Submit(tasks []Task) { s.srv.Submit(tasks) }

// Wait blocks until every submitted task has completed (at least one
// task must have been submitted), the timeout elapses, or the server
// is closed (ErrServerClosed). A non-positive timeout waits
// indefinitely.
func (s *Server) Wait(timeout time.Duration) error { return s.srv.Wait(timeout) }

// Stats reports the server's lifetime counters and current
// connections.
func (s *Server) Stats() ServerStats {
	sub, comp, reissued, workers := s.srv.Stats()
	return ServerStats{
		Submitted: sub,
		Completed: comp,
		Reissued:  reissued,
		Workers:   workers,
		Watchers:  s.events.Subscribers(),
	}
}

// Workers returns a snapshot of the connected workers: name, claimed
// and believed (§3.6-smoothed) rates, pending work, completions.
func (s *Server) Workers() []WorkerStatus { return s.srv.Workers() }

// Snapshot returns a point-in-time operational view of the server:
// uptime, cumulative task counters, pending/running queue depths,
// batch count, the per-worker pool, attached watchers with their drop
// counters, and dispatch-latency quantiles (P50/P90/P99 over a
// sliding window of recent round trips). The same snapshot is served
// over the wire to FetchStats clients and `pnserver -stats`.
func (s *Server) Snapshot() ServerSnapshot { return s.srv.Snapshot() }

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

// Close shuts the server down: the listener closes, worker and watch
// connections drop, and blocked Wait calls return ErrServerClosed.
// Close is idempotent.
func (s *Server) Close() error { return s.close() }

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
