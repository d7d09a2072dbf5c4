package pnsched

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"

	"pnsched/internal/dist"
	"pnsched/internal/jobs"
	"pnsched/internal/observe"
	"pnsched/internal/telemetry"
)

// This file is what Serve and ServeJobs share, said once: the options
// both take, the event/telemetry wiring both build, and the listener,
// admin endpoint and lifecycle both run behind.

// ServeOption adjusts a live service. Every ServeOption is accepted by
// both Serve and ServeJobs (it is also a JobsOption): the listener,
// logging, observation and the admin endpoint belong to the one worker
// pool both services sit on.
type ServeOption func(*commonOpts)

// applyJobs makes every ServeOption a JobsOption.
func (f ServeOption) applyJobs(o *jobsOpts) { f(&o.commonOpts) }

// commonOpts are the settings of the worker pool and its endpoints.
type commonOpts struct {
	addr      string
	ln        net.Listener
	log       *slog.Logger
	observer  Observer
	adminAddr string
}

// WithListenAddr sets the TCP address the service listens on. The
// default is "127.0.0.1:0" — an ephemeral loopback port, read back
// with Addr — so tests and single-machine demos need no configuration;
// production servers pass ":9000"-style addresses.
func WithListenAddr(addr string) ServeOption { return func(o *commonOpts) { o.addr = addr } }

// WithListener hands the service an existing listener instead of an
// address; the service takes ownership and closes it on Close.
func WithListener(ln net.Listener) ServeOption { return func(o *commonOpts) { o.ln = ln } } //pnanalyze:ok surface deployment setting: a listener a supervisor or socket activation already bound

// WithServeLog routes the service's structured progress logging (worker
// joins and leaves, batch decisions, reissues, watch subscriptions,
// protocol rejections, job lifecycle) to a slog logger as levelled
// key-value records. The default is silent.
func WithServeLog(log *slog.Logger) ServeOption { return func(o *commonOpts) { o.log = log } }

// WithAdminAddr additionally serves an HTTP admin endpoint on the
// given address (e.g. "127.0.0.1:9090"):
//
//	/metrics       runtime telemetry in Prometheus text format — the
//	               pool-level pnsched_* series (task/batch counters,
//	               queue depths, the dispatch-latency and batch-wall
//	               histograms, per-worker and per-watcher series) and
//	               the pnsched_ga_* generation/evaluation/budget
//	               counters under either service; ServeJobs adds the
//	               job-level pnsched_jobs_* series
//	/healthz       200 "ok" while the service keeps its promises; 503
//	               with the reason once a ServeJobs journal write has
//	               failed and job state is no longer durable
//	/debug/pprof/  the standard Go profiling handlers
//
// The admin listener binds when the service starts (a bind failure
// fails Serve / ServeJobs) and closes with it; read the bound address
// back with AdminAddr. The default is no admin endpoint; metrics are
// still collected either way.
func WithAdminAddr(addr string) ServeOption { return func(o *commonOpts) { o.adminAddr = addr } }

// WithServeObserver delivers the service's events — worker lifecycle,
// batch decisions, dispatches, the schedulers' GA-level events and
// ServeJobs' job lifecycle — to an in-process observer, in addition to
// any observer already attached to the Spec and to every remote watch
// client.
func WithServeObserver(obs Observer) ServeOption { return func(o *commonOpts) { o.observer = obs } }

// service is what a live Server and JobService share — and, embedded,
// where both get Addr, AdminAddr, Snapshot and Close: the job
// dispatcher both front, the event broadcaster and telemetry registry,
// the bound listener, the optional admin endpoint, the context watcher
// and the idempotent Close.
type service struct {
	d      *jobs.Dispatcher
	events *dist.Broadcaster
	reg    *telemetry.Registry
	addr   net.Addr
	stop   func() bool // detaches the context watcher

	adminLn  net.Listener // nil without an admin address
	adminSrv *http.Server

	closeOnce sync.Once
	closeErr  error
	serveErr  chan error
}

// wire builds the event plumbing of one service: the broadcaster remote
// watchers subscribe to (dist.DefaultEventQueue frames per watcher, a
// dist.DefaultEventReplay-frame catch-up ring), the telemetry registry,
// and the two observer chains. local — first, the WithServeObserver
// observer, last, then the GA metrics observer — is what the pool emits
// its own events into (it reaches the broadcaster through
// PoolConfig.Events); full is local plus the broadcaster, for the
// schedulers, which publish their GA-level events themselves. It
// returns the pool's configuration and full.
func (s *service) wire(o *commonOpts, first, last Observer) (dist.PoolConfig, Observer) {
	s.events = dist.NewBroadcaster(0, 0)
	s.reg = telemetry.NewRegistry()
	local := observe.Multi(first, o.observer, last, dist.NewMetricsObserver(s.reg))
	return dist.PoolConfig{
		Log:      o.log,
		Observer: local,
		Events:   s.events,
		Metrics:  s.reg,
	}, observe.Multi(local, s.events)
}

// newBatch constructs the scheduler a live service drives from its
// spec. Immediate-mode schedulers have no batch form for the pool's
// batch loop; who completes the rejection ("Serve needs", "jobs need").
func newBatch(spec Spec, who string) (BatchScheduler, error) {
	sch, err := New(spec)
	if err != nil {
		return nil, err
	}
	batch, ok := sch.(BatchScheduler)
	if !ok {
		return nil, fmt.Errorf("pnsched: scheduler %s is immediate-mode; %s a batch scheduler", sch.Name(), who)
	}
	return batch, nil
}

// start binds the listener (and the admin endpoint, answering /healthz
// from the dispatcher's Health) and begins serving; on failure
// everything opened so far, the dispatcher included, is closed again.
func (s *service) start(ctx context.Context, o *commonOpts) error {
	ln := o.ln
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", o.addr); err != nil {
			s.d.Close()
			return err
		}
	}
	s.addr = ln.Addr()
	s.serveErr = make(chan error, 1)
	if o.adminAddr != "" {
		adminLn, err := net.Listen("tcp", o.adminAddr)
		if err != nil {
			s.d.Close()
			ln.Close()
			return fmt.Errorf("pnsched: admin listener: %w", err)
		}
		s.adminLn = adminLn
		s.adminSrv = &http.Server{Handler: telemetry.AdminMux(s.reg, s.d.Health)}
		go s.adminSrv.Serve(adminLn)
	}
	go func() { s.serveErr <- s.d.Serve(ln) }()
	if ctx != nil && ctx.Done() != nil {
		s.stop = context.AfterFunc(ctx, func() { s.Close() })
	}
	return nil
}

// Addr returns the service's listening address — with the default
// ephemeral port, the address workers, watchers and job clients dial.
func (s *service) Addr() net.Addr { return s.addr }

// AdminAddr returns the admin HTTP endpoint's bound address, or nil
// when the service was started without WithAdminAddr.
func (s *service) AdminAddr() net.Addr {
	if s.adminLn == nil {
		return nil
	}
	return s.adminLn.Addr()
}

// Snapshot returns a point-in-time operational view of the service:
// uptime, cumulative task counters, pending/running queue depths,
// batch count, the per-worker pool, attached watchers with their drop
// counters, dispatch-latency quantiles (P50/P90/P99 over a sliding
// window of recent round trips) and, under ServeJobs, the job counts.
// The same snapshot is served over the wire to FetchStats clients and
// `pnserver -stats`.
func (s *service) Snapshot() ServerSnapshot { return s.d.Snapshot() }

// Close shuts the service down: the listener and the admin endpoint
// close, worker and watch connections drop, batch loops stop, and
// blocked Server.Wait calls (with ErrServerClosed) and
// JobService.WaitJob calls return. A JobService's queued and running
// jobs keep their last state — Close is shutdown, not cancellation.
// Close is idempotent.
func (s *service) Close() error {
	s.closeOnce.Do(func() {
		if s.stop != nil {
			s.stop()
		}
		if s.adminSrv != nil {
			s.adminSrv.Close()
		}
		s.closeErr = s.d.Close()
		if err := <-s.serveErr; err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}
