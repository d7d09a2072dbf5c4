package dist

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"sync"
	"time"

	"pnsched/internal/observe"
	"pnsched/internal/sched"
	"pnsched/internal/smoothing"
	"pnsched/internal/stats"
	"pnsched/internal/task"
	"pnsched/internal/telemetry"
	"pnsched/internal/units"
)

// DefaultNu is the smoothing factor of the per-worker rate and
// per-link communication estimates: the paper's ν = 0.5 (§3.6).
const DefaultNu = 0.5

// DefaultBacklog paces dispatch: while every worker a batch could use
// holds at least this many unfinished tasks, further batches stay in
// the unscheduled queue. Keeping most work undispatched is what makes
// the scheduling dynamic — late-joining workers receive their share
// from subsequent batches, and smoothed rate observations steer
// placement instead of being decided once up front.
const DefaultBacklog = 4

// ErrServerClosed is returned by a wait on the pool's work when the
// pool is closed first.
var ErrServerClosed = errors.New("dist: server closed")

// PoolConfig is the worker pool's share of its owner's configuration;
// jobs.Config embeds it.
type PoolConfig struct {
	// Log receives structured progress logging (worker joins/leaves,
	// batch dispatches, reissues, protocol rejections, job lifecycle) as
	// levelled key-value records. Nil disables logging.
	Log *slog.Logger
	// Observer, when non-nil, receives the typed public-API events the
	// live runtime emits: worker joins and leaves, OnBatchDecided after
	// every committed batch decision, OnDispatch for every task sent to
	// a worker (At in seconds since the pool started), and an owner's
	// job lifecycle events. GA-level events come from the scheduler
	// itself via core.Config.Observer. Events are delivered outside the
	// pool's lock; implementations must not block.
	Observer observe.Observer
	// Events, when non-nil, turns on remote observation: the pool
	// accepts watch connections (the msgWatch handshake) and streams
	// its events — the same ones Observer sees, plus whatever the
	// scheduler publishes into the broadcaster — to every subscriber
	// as versioned event frames. Watch connections arriving while
	// Events is nil are rejected.
	Events *Broadcaster
	// Metrics, when non-nil, instruments the pool on the given
	// telemetry registry as the pnsched_* series, the same names whoever
	// the owner is: task and batch counters, queue-depth gauges, the
	// dispatch-latency and batch-wall histograms, per-worker and
	// per-watcher collectors, and protocol decode errors. The registry
	// is typically also serving /metrics via telemetry.AdminMux.
	Metrics *telemetry.Registry
	// Traces, when non-nil, is the recorder answering the trace wire
	// request (protocol 1.2) with recent per-batch decision traces; nil
	// answers with an empty list. The caller wires the same recorder
	// into the observer chain the scheduler and pool emit into; the pool
	// only reads it.
	Traces *TraceRecorder
}

// Owner is what a Pool asks of the runtime built on it. The pool holds
// the whole worker conversation — registration, assign and done frames,
// §3.6 smoothing, loss detection, watch/stats/trace service and the
// batch loop; the owner only says whose work a worker does and what a
// finished, lost or undeliverable task means to it. A lease is the
// owner's tag for one stream of work: a worker carries at most one,
// Run(lease, …) schedules only onto workers carrying that one, and the
// pool never looks inside it. The job dispatcher (internal/jobs) is the
// owner: it leases workers to jobs, or to its one open job under Serve.
//
// The …Locked methods run with Pool.Mu held and must not block (the
// locksend analyzer checks them by name); job events they produce are
// handed back and emitted by the pool, in order, once the lock is free.
type Owner interface {
	// LeaseLocked answers who gets a worker that carries no lease; nil
	// leaves it free. The pool asks when a worker joins.
	LeaseLocked(w *Worker) any
	// LiveLocked reports whether the lease still takes batches; Run
	// returns once it does not.
	LiveLocked(lease any) bool
	// BatchLocked counts one committed batch decision for the lease and
	// returns its invocation number for the batch_decided event.
	BatchLocked(lease any) int
	// WireIDLocked names t in the assign frame; done reports come back
	// under the same id.
	WireIDLocked(t task.Task) int32
	// DoneLocked records that worker finished t of the lease's work.
	DoneLocked(lease any, worker string, t task.Task, elapsed units.Seconds, now time.Time) []JobEvent
	// LostLocked records that the named worker, which carried the lease,
	// left with lost (in task-ID order, possibly empty) unfinished. It
	// returns how many of them it requeued.
	LostLocked(lease any, worker string, lost []task.Task, now time.Time) (requeued int, evs []JobEvent)
	// UnsentLocked takes back tasks a batch assigned to a worker that
	// left or changed lease while the scheduler ran; they were never
	// sent.
	UnsentLocked(lease any, ts []task.Task)
	// StatsLocked fills in the owner's share of a stats snapshot: the
	// task counters, Pending, Batches and Jobs.
	StatsLocked(snap *Snapshot)
	// ServeRequest serves a connection whose first frame is not one of
	// the pool's own handshakes and reports whether it took it; the
	// pool rejects and counts what it declines. Called without the lock.
	ServeRequest(conn net.Conn, m *Message) bool
}

// JobEvent is one job lifecycle event an owner produced under the pool
// lock (exactly one field is set), delivered by Pool.Emit after the
// lock is released. Ordering is preserved end to end so watchers see,
// e.g., a predecessor's job_done before its successor's job_started.
type JobEvent struct {
	Queued  *observe.JobQueued
	Started *observe.JobStarted
	Done    *observe.JobDone
}

// Pool is the paper's §3 scheduling processor minus the policy: it
// serves the TCP endpoint, holds the conversation with every client
// processor, and runs batch loops for its Owner. Create with NewPool;
// all methods are safe for concurrent use except where a …Locked name
// says the caller holds Mu.
type Pool struct {
	// Mu guards the pool's state and, by convention, its owner's: the
	// owner hooks run under it, and an owner takes it around its own
	// transitions so the two never disagree.
	Mu sync.Mutex
	// Start is the epoch of every event and snapshot timestamp. An
	// owner restoring persisted state may set it before the pool is
	// shared.
	Start time.Time
	// Log is PoolConfig.Log, or a discarding logger when that was nil.
	Log *slog.Logger

	owner   Owner
	backlog int          // DefaultBacklog; TestPoolCore's rig paces with 2
	met     *poolMetrics // never nil; the zero value's nil instruments no-op
	// observer is the effective event sink: PoolConfig.Observer fanned
	// together with PoolConfig.Events, so every emitted event reaches
	// both the in-process observer and the wire subscribers.
	observer observe.Observer
	events   *Broadcaster
	traces   *TraceRecorder // PoolConfig.Traces

	cond    *sync.Cond // broadcast on every state change
	ln      net.Listener
	workers []*Worker // connected, in registration order
	closed  bool
	frames  [][]task.Task // commitLocked's output, reused by every Run; touched only under Mu
	// scheduling holds, per lease, the batch Run has popped from the
	// queue and not yet dispatched — the scheduler is deciding it with
	// the lock released. Invariant, under Mu: every unfinished task of a
	// live lease is in exactly one of its queue, a worker's outstanding
	// set, or this map, and InFlightLocked reports the last two, so a
	// durable snapshot taken at any instant misses no task.
	scheduling map[any][]task.Task

	// latency is a sliding window of dispatch→done wall-clock round
	// trips in seconds (written circularly at latW, latN valid) feeding
	// the Snapshot quantiles. Bounded so a long-lived pool's snapshot
	// reflects current behaviour, not its whole history.
	latency    [latencyWindow]float64
	latW, latN int
}

const latencyWindow = 512

// Worker is the pool-side record of one connected client processor.
// All fields are guarded by the owning Pool's Mu; the out channel is
// drained by a dedicated writer goroutine so no TCP write ever happens
// under the lock.
type Worker struct {
	// Lease is the owner's tag for the work this worker currently does.
	// Only the owner assigns it; the pool clears it in ReleaseLocked.
	Lease any

	name    string
	claimed units.Rate
	conn    net.Conn
	out     chan []task.Task // assign batches; closed when the worker leaves

	rate *smoothing.Smoother // observed Mflop/s, primed with claimed
	comm *smoothing.Smoother // per-task link overhead, seconds
	// outstanding is keyed by wire id (Owner.WireIDLocked); the task
	// itself rides along for requeueing under its own ID. Everything
	// in it belongs to Lease.
	outstanding map[int32]pendingTask
	pending     units.MFlops // total outstanding work
	completed   int          // tasks this worker finished
	gone        bool         // left the pool; no further dispatches
}

// WorkerStatus is a point-in-time summary of one connected worker,
// exposed for monitoring and tests.
type WorkerStatus struct {
	Name      string
	Claimed   units.Rate   // rate declared in the hello message
	Believed  units.Rate   // smoothed observed rate (§3.6)
	Pending   units.MFlops // dispatched but unfinished work
	Completed int          // tasks finished on this worker
}

// NewPool returns a pool serving owner. It does not listen yet; call
// Serve.
func NewPool(cfg PoolConfig, owner Owner) (*Pool, error) {
	p := &Pool{
		Start:    time.Now(),
		Log:      cmp.Or(cfg.Log, slog.New(slog.DiscardHandler)),
		owner:    owner,
		backlog:  DefaultBacklog,
		observer: cfg.Observer,
		events:   cfg.Events,
		traces:   cfg.Traces,

		scheduling: map[any][]task.Task{},
	}
	if cfg.Events != nil {
		p.observer = observe.Multi(cfg.Observer, cfg.Events)
	}
	p.cond = sync.NewCond(&p.Mu)
	p.met = newPoolMetrics(cfg.Metrics, p)
	return p, nil
}

// Serve accepts connections on ln until Close. It takes ownership of
// the listener. Like net/http, it returns nil (not an error) when the
// pool is shut down with Close.
func (p *Pool) Serve(ln net.Listener) error {
	p.Mu.Lock()
	if p.closed {
		p.Mu.Unlock()
		ln.Close()
		return nil // already shut down: nil, as documented
	}
	p.ln = ln
	p.Mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			p.Mu.Lock()
			closed := p.closed
			p.Mu.Unlock()
			// Only the listener's own closing ends Serve quietly; a reset
			// surfacing from Accept is an error like any other.
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go p.handleConn(conn)
	}
}

// Close shuts the pool down: the listener is closed, every worker and
// watch connection is dropped, batch loops return and AwaitLocked
// callers wake. Close is idempotent.
func (p *Pool) Close() error {
	p.Mu.Lock()
	if p.closed {
		p.Mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	conns := make([]net.Conn, len(p.workers))
	for i, w := range p.workers {
		conns[i] = w.conn
	}
	p.cond.Broadcast()
	p.Mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if p.events != nil {
		// Ending each subscriber's queue ends its writer loop, which
		// closes the watch connection.
		p.events.closeAll()
	}
	return nil
}

// Broadcast wakes every AwaitLocked caller; owners call it after
// changing state those wait on.
func (p *Pool) Broadcast() { p.cond.Broadcast() }

// AwaitLocked waits until ready reports true, the pool closes, or
// timeout elapses (a non-positive timeout never does), releasing Mu
// while it sleeps as sync.Cond does. It checks in that order on every
// wake-up and reports which of the last two ended the wait.
func (p *Pool) AwaitLocked(timeout time.Duration, ready func() bool) (closed, expired bool) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// Under Mu, the timer's wake-up cannot fall between a check and Wait.
		defer time.AfterFunc(timeout, func() {
			p.Mu.Lock()
			p.cond.Broadcast()
			p.Mu.Unlock()
		}).Stop()
	}
	for {
		switch {
		case ready():
			return false, false
		case p.closed:
			return true, false
		case !deadline.IsZero() && !time.Now().Before(deadline):
			return false, true
		}
		p.cond.Wait()
	}
}

// Emit delivers job events in order. Must be called without holding Mu.
func (p *Pool) Emit(evs []JobEvent) {
	for _, ev := range evs {
		switch {
		case ev.Queued != nil:
			if p.observer != nil {
				p.observer.OnJobQueued(*ev.Queued)
			}
			p.Log.Info("job queued", "job", ev.Queued.ID, "tenant", ev.Queued.Tenant,
				"priority", ev.Queued.Priority, "tasks", ev.Queued.Tasks,
				"queued", ev.Queued.Queued)
		case ev.Started != nil:
			if p.observer != nil {
				p.observer.OnJobStarted(*ev.Started)
			}
			p.Log.Info("job started", "job", ev.Started.ID, "tenant", ev.Started.Tenant,
				"workers", ev.Started.Workers, "waited", float64(ev.Started.Waited))
		case ev.Done != nil:
			if p.observer != nil {
				p.observer.OnJobDone(*ev.Done)
			}
			p.Log.Info("job finished", "job", ev.Done.ID, "tenant", ev.Done.Tenant,
				"state", ev.Done.State, "completed", ev.Done.Completed,
				"retries", ev.Done.Retries, "duration", float64(ev.Done.Duration))
		}
	}
}

// Workers returns a snapshot of the connected workers.
func (p *Pool) Workers() []WorkerStatus {
	p.Mu.Lock()
	defer p.Mu.Unlock()
	out := make([]WorkerStatus, len(p.workers))
	for i, w := range p.workers {
		out[i] = WorkerStatus{
			Name:      w.name,
			Claimed:   w.claimed,
			Believed:  w.believed(),
			Pending:   w.pending,
			Completed: w.completed,
		}
	}
	return out
}

// Snapshot returns a point-in-time operational view: uptime, the
// owner's cumulative counters and queue depths, the per-worker pool,
// attached watchers, and dispatch-latency quantiles. It is the
// in-process form of what the stats wire message serves to remote
// clients.
func (p *Pool) Snapshot() Snapshot {
	p.Mu.Lock()
	snap, window := p.statsLocked(time.Now())
	p.Mu.Unlock()
	if len(window) > 0 {
		snap.Latency = LatencySummary{
			Samples: len(window),
			P50:     units.Seconds(stats.Quantile(window, 0.50)),
			P90:     units.Seconds(stats.Quantile(window, 0.90)),
			P99:     units.Seconds(stats.Quantile(window, 0.99)),
		}
	}
	if p.events != nil {
		snap.Watchers = p.events.Watchers()
	}
	return snap
}

// helloTimeout bounds how long an accepted connection may sit silent
// before sending its first frame. Without it, a port scanner or
// half-open connection would pin a goroutine and fd for the process
// lifetime (pre-registration conns are not yet tracked, so Close cannot
// reach them).
const helloTimeout = 10 * time.Second

// handleConn owns one inbound connection. The first frame decides what
// the peer is: a hello registers a worker, a watch subscribes an event
// stream, stats and trace are one-shot request/reply exchanges, and
// anything else is the owner's to serve or reject. Every path reads
// through the same bounded framing, so no client — registered or not —
// can make the pool buffer an unbounded line.
func (p *Pool) handleConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	br := bufio.NewReader(conn)
	line, err := readFrame(br)
	var m *message
	if err == nil {
		m, _, err = decodeWireMessage(line)
		if err == nil && m == nil {
			err = errors.New("dist: connection opened with a non-handshake frame")
		}
	}
	if err != nil {
		if !isClosedErr(err) {
			p.met.decodeErrors.Inc()
			p.Log.Warn("connection rejected", "remote", conn.RemoteAddr(), "err", err)
		}
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{}) // handshake done: read blocks indefinitely

	switch m.Type {
	case msgHello:
		p.serveWorker(conn, br, m.Name, units.Rate(m.Rate))
	case msgWatch:
		p.serveWatch(conn, br)
	case msgStats:
		snap := p.Snapshot()
		p.Reply(conn, &message{Type: msgStats, Stats: &snap})
	case msgTrace:
		// A pool without a TraceRecorder replies with an empty list.
		p.Reply(conn, &message{Type: msgTrace, Traces: p.traces.Traces()})
	default:
		if !p.owner.ServeRequest(conn, m) {
			p.met.decodeErrors.Inc()
			p.Log.Warn("connection rejected: first frame is not a handshake",
				"remote", conn.RemoteAddr(), "type", m.Type)
			conn.Close()
		}
	}
}

// Reply answers a one-shot request — its frame was the connection's
// first, already consumed and validated by handleConn — with one
// versioned message, then closes.
func (p *Pool) Reply(conn net.Conn, m *Message) {
	defer conn.Close()
	m.Proto = &wireVersion{Major: ProtoMajor, Minor: ProtoMinor}
	if err := json.NewEncoder(conn).Encode(m); err != nil {
		p.Log.Warn("reply failed", "remote", conn.RemoteAddr(), "type", m.Type, "err", err)
	}
}

// serveWatch subscribes one watch client to the event broadcaster and
// streams frames to it until either side hangs up, via the shared
// ServeWatch loop.
func (p *Pool) serveWatch(conn net.Conn, br *bufio.Reader) {
	if p.events == nil {
		p.Log.Warn("watch rejected: event streaming not enabled", "remote", conn.RemoteAddr())
		conn.Close()
		return
	}
	p.Mu.Lock()
	closed := p.closed
	p.Mu.Unlock()
	if closed {
		conn.Close()
		return
	}
	p.Log.Info("watch client subscribed", "remote", conn.RemoteAddr())
	ServeWatch(conn, br, p.events, p.Log)
}

// serveWorker registers a worker and runs its read loop (done messages)
// until the connection drops, then removes it and hands its unfinished
// tasks to the owner (the paper's dynamic rescheduling on machine loss).
func (p *Pool) serveWorker(conn net.Conn, br *bufio.Reader, name string, claimed units.Rate) {
	p.Mu.Lock()
	if p.closed {
		p.Mu.Unlock()
		conn.Close()
		return
	}
	w, pool := p.joinLocked(name, claimed)
	w.conn = conn
	w.out = make(chan []task.Task, 16) // assign frames in flight; a full queue means a wedged peer
	p.cond.Broadcast()                 // queued work may now be schedulable
	p.Mu.Unlock()
	p.Log.Info("worker joined", "worker", name, "remote", conn.RemoteAddr(),
		"rate", float64(claimed), "workers", pool)
	if p.observer != nil {
		p.observer.OnWorkerJoined(observe.WorkerJoined{
			Name:    name,
			Rate:    claimed,
			Workers: pool,
			At:      p.Since(time.Now()),
		})
	}

	go p.writeLoop(w)

	// Read loop: done messages until the connection drops. Unknown
	// frame types decode to (nil, nil, nil) and are skipped, so the
	// protocol can evolve; malformed or oversized frames drop the
	// worker (its tasks are reissued).
	for {
		line, err := readFrame(br)
		if err != nil {
			if !isClosedErr(err) {
				p.Log.Warn("worker read error", "worker", name, "err", err)
			}
			break
		}
		m, _, err := decodeWireMessage(line)
		if err != nil {
			p.met.decodeErrors.Inc()
			p.Log.Warn("worker sent bad frame", "worker", name, "err", err)
			break
		}
		if m != nil && m.Type == msgDone {
			now := time.Now()
			p.Mu.Lock()
			evs := p.doneLocked(w, m.Task, units.Seconds(m.Elapsed), m.Real, now)
			p.cond.Broadcast()
			p.Mu.Unlock()
			p.Emit(evs)
		}
	}
	conn.Close()
	now := time.Now()
	p.Mu.Lock()
	requeued, pool, evs := p.leaveLocked(w, now)
	close(w.out) // under Mu, which Run holds while it queues frames on w.out
	p.cond.Broadcast()
	p.Mu.Unlock()
	p.Log.Info("worker left", "worker", name, "reissued", requeued, "workers", pool)
	if p.observer != nil {
		p.observer.OnWorkerLeft(observe.WorkerLeft{
			Name:     name,
			Reissued: requeued,
			Workers:  pool,
			At:       p.Since(now),
		})
	}
	p.Emit(evs)
}

// writeLoop drains a worker's outbound queue onto its connection as
// assign frames, batched into one write for as many as are queued. A
// write failure closes the connection, which surfaces in the read loop
// and triggers unregistration there.
func (p *Pool) writeLoop(w *Worker) {
	fw := newFrameWriter(w.conn)
	m := message{Type: msgAssign}
	if drain(fw, w.out, func(ts []task.Task) error {
		m.Tasks = ts
		return fw.message(&m)
	}) != nil {
		w.conn.Close()
	}
}

// Run is the scheduling processor proper, for one lease: whenever q
// holds unscheduled tasks and a worker carrying the lease runs low, it
// takes the next batch (takeLocked), runs sch on it outside the lock,
// and commits the resulting assignment (commitLocked). It returns when
// the pool closes or the owner reports the lease dead. q is guarded by
// Mu.
func (p *Pool) Run(lease any, q *task.Queue, sch sched.Batch) {
	log := p.Log.With("lease", lease)
	var dispatched []observe.Dispatch // reused from batch to batch
	for {
		p.Mu.Lock()
		p.AwaitLocked(0, func() bool {
			return !p.owner.LiveLocked(lease) || !q.Empty() && p.wantsWorkLocked(lease)
		})
		if p.closed || !p.owner.LiveLocked(lease) {
			p.Mu.Unlock()
			return
		}
		batch, snap := p.takeLocked(lease, q, sch, time.Now())
		p.Mu.Unlock()

		// The scheduler (possibly a GA) runs for real wall-clock time
		// here; the lock is free so done reports, joins and submissions
		// keep flowing.
		t0 := time.Now()
		asg, cost := sch.ScheduleBatch(batch, snap)
		wall := time.Since(t0).Seconds()
		p.met.batchWall.Observe(wall)
		p.met.batches.Inc()
		p.Mu.Lock()
		invocation := p.owner.BatchLocked(lease)
		p.Mu.Unlock()
		log.Info("batch scheduled", "tasks", len(batch), "workers", snap.M(),
			"cost", float64(cost), "wall", wall)
		if p.observer != nil {
			p.observer.OnBatchDecided(observe.BatchDecision{
				Invocation: invocation,
				Scheduler:  sch.Name(),
				Tasks:      len(batch),
				Procs:      snap.M(),
				Cost:       cost,
				At:         p.Since(time.Now()),
				Wall:       units.Seconds(wall),
			})
		}

		// Frames are queued under Mu, which a departing worker's w.out is
		// closed under. A full queue means a wedged writer (the worker
		// stopped reading): hang up once Mu is free; the read loop then
		// reissues everything.
		var wedged []net.Conn
		p.Mu.Lock()
		p.frames, dispatched = p.commitLocked(lease, snap.workers, asg, time.Now(), p.frames[:0], dispatched[:0])
		for j, wire := range p.frames {
			if wire == nil {
				continue
			}
			select {
			case snap.workers[j].out <- wire:
			default:
				wedged = append(wedged, snap.workers[j].conn)
			}
		}
		p.cond.Broadcast()
		p.Mu.Unlock()
		for _, c := range wedged {
			c.Close()
		}
		if p.observer != nil {
			for _, d := range dispatched {
				p.observer.OnDispatch(d)
			}
		}
	}
}
