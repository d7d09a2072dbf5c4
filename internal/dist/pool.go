package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sort"
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

// DefaultNu is the smoothing factor used for the per-worker rate and
// per-link communication estimates when PoolConfig.Nu is zero; it
// matches the paper's ν = 0.5.
const DefaultNu = 0.5

// DefaultBacklog is the per-worker outstanding-task threshold that
// pauses batch scheduling when PoolConfig.Backlog is zero.
const DefaultBacklog = 4

// PoolConfig is the configuration every owner of a worker pool shares;
// ServerConfig and jobs.Config embed it.
type PoolConfig struct {
	// Log receives structured progress logging (worker joins/leaves,
	// batch dispatches, reissues, protocol rejections, job lifecycle) as
	// levelled key-value records. Nil disables logging.
	Log *slog.Logger
	// Observer, when non-nil, receives the typed public-API events the
	// live runtime emits: worker joins and leaves, OnBatchDecided after
	// every committed batch decision, OnDispatch for every task sent to
	// a worker (At in seconds since the pool started), and — through
	// observe.JobObserver — an owner's job lifecycle events. GA-level
	// events come from the scheduler itself via core.Config.Observer.
	// Events are delivered outside the pool's lock; implementations must
	// not block.
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
	// Nu is the exponential-smoothing factor for observed worker rates
	// and link overheads; 0 selects DefaultNu.
	Nu float64
	// Backlog paces dispatch: while every worker a batch could use holds
	// at least this many unfinished tasks, further batches stay in the
	// unscheduled queue. Keeping most work undispatched is what makes
	// the scheduling dynamic — late-joining workers receive their share
	// from subsequent batches, and smoothed rate observations steer
	// placement instead of being decided once up front. 0 selects
	// DefaultBacklog.
	Backlog int
}

// Owner is what a Pool asks of the runtime built on it. The pool holds
// the whole worker conversation — registration, assign and done frames,
// §3.6 smoothing, loss detection, watch/stats/trace service and the
// batch loop; the owner only says whose work a worker does and what a
// finished, lost or undeliverable task means to it. A lease is the
// owner's tag for one stream of work: a worker carries at most one,
// Run(lease, …) schedules only onto workers carrying that one, and the
// pool never looks inside it. Server is the owner whose only lease is
// nil; the job dispatcher leases workers to jobs.
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
	nu      float64
	backlog int
	met     *poolMetrics // never nil; the zero value's nil instruments no-op
	// observer is the effective event sink: PoolConfig.Observer fanned
	// together with PoolConfig.Events, so every emitted event reaches
	// both the in-process observer and the wire subscribers.
	observer observe.Observer
	events   *Broadcaster
	traces   *TraceRecorder // answers the trace request; nil replies empty

	cond    *sync.Cond // broadcast on every state change
	ln      net.Listener
	workers []*Worker // connected, in registration order
	closed  bool
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
	out     chan []wireTask // assign batches; closed on unregister

	rate *smoothing.Smoother // observed Mflop/s, primed with claimed
	comm *smoothing.Smoother // per-task link overhead, seconds
	// outstanding is keyed by wire id (Owner.WireIDLocked); the task
	// itself rides along for requeueing under its own ID. Everything
	// in it belongs to Lease.
	outstanding map[int32]pendingTask
	pending     units.MFlops // total outstanding work
	completed   int          // tasks this worker finished
	gone        bool         // unregistered; no further dispatches
}

// pendingTask is a dispatched-but-unfinished task plus the bookkeeping
// for the Γc link-overhead estimate.
type pendingTask struct {
	t      task.Task
	sentAt time.Time
	// solo marks tasks dispatched to a worker with an empty queue: for
	// those, round-trip minus processing time approximates the link
	// overhead without queueing noise.
	solo bool
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
	if cfg.Nu < 0 || cfg.Nu > 1 {
		return nil, fmt.Errorf("dist: smoothing factor %v outside [0,1]", cfg.Nu)
	}
	if cfg.Backlog < 0 {
		return nil, fmt.Errorf("dist: negative backlog %d", cfg.Backlog)
	}
	p := &Pool{
		Start:    time.Now(),
		Log:      cfg.Log,
		owner:    owner,
		nu:       cfg.Nu,
		backlog:  cfg.Backlog,
		observer: cfg.Observer,
		events:   cfg.Events,

		scheduling: map[any][]task.Task{},
	}
	if p.nu == 0 {
		p.nu = DefaultNu
	}
	if p.backlog == 0 {
		p.backlog = DefaultBacklog
	}
	if p.Log == nil {
		p.Log = slog.New(slog.DiscardHandler)
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
// watch connection is dropped, batch loops return and WaitLocked
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

// ClosedLocked reports whether Close has been called.
func (p *Pool) ClosedLocked() bool { return p.closed }

// WaitLocked blocks until the next state change (Mu is released while
// waiting, as with sync.Cond).
func (p *Pool) WaitLocked() { p.cond.Wait() }

// Broadcast wakes every WaitLocked caller and batch loop; owners call
// it after changing state those wait on.
func (p *Pool) Broadcast() { p.cond.Broadcast() }

// WakeAfter arranges one Broadcast once d has elapsed, so a WaitLocked
// loop with a deadline gets to look at it; the caller stops the timer
// when its wait ends. The wake-up takes Mu: it cannot slip between a
// waiter's deadline check and its WaitLocked, where an unlocked
// Broadcast would be lost and the waiter sleep past its deadline.
func (p *Pool) WakeAfter(d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		p.Mu.Lock()
		p.cond.Broadcast()
		p.Mu.Unlock()
	})
}

// Since converts an absolute time to the pool clock — seconds since
// Start, the clock every event and timestamp uses. The zero time maps
// to 0.
func (p *Pool) Since(t time.Time) units.Seconds {
	if t.IsZero() {
		return 0
	}
	return units.Seconds(t.Sub(p.Start).Seconds())
}

// WorkersLocked returns the connected workers in registration order;
// the slice is the pool's own and valid only while Mu is held.
func (p *Pool) WorkersLocked() []*Worker { return p.workers }

// ReleaseLocked ends a lease: every worker carrying it becomes free and
// forgets its in-flight tasks. Those cannot be recalled (the protocol
// has no abort message) — their eventual done reports no longer resolve
// and are ignored.
func (p *Pool) ReleaseLocked(lease any) {
	for _, w := range p.workers {
		if w.Lease == lease {
			w.Lease = nil
			clear(w.outstanding)
			w.pending = 0
		}
	}
}

// InFlightLocked returns the tasks that have left the lease's queue and
// are not yet reported done — dispatched to a worker, or in the batch
// the scheduler is deciding right now — in task-ID order.
func (p *Pool) InFlightLocked(lease any) []task.Task {
	ts := slices.Clone(p.scheduling[lease])
	for _, w := range p.workers {
		if w.Lease == lease {
			for _, pt := range w.outstanding {
				ts = append(ts, pt.t)
			}
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	return ts
}

// Emit delivers job events in order. Must be called without holding Mu.
func (p *Pool) Emit(evs []JobEvent) {
	for _, ev := range evs {
		switch {
		case ev.Queued != nil:
			observe.EmitJobQueued(p.observer, *ev.Queued)
			p.Log.Info("job queued", "job", ev.Queued.ID, "tenant", ev.Queued.Tenant,
				"priority", ev.Queued.Priority, "tasks", ev.Queued.Tasks,
				"queued", ev.Queued.Queued)
		case ev.Started != nil:
			observe.EmitJobStarted(p.observer, *ev.Started)
			p.Log.Info("job started", "job", ev.Started.ID, "tenant", ev.Started.Tenant,
				"workers", ev.Started.Workers, "waited", float64(ev.Started.Waited))
		case ev.Done != nil:
			observe.EmitJobDone(p.observer, *ev.Done)
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

func (w *Worker) believed() units.Rate {
	return units.Rate(w.rate.ValueOr(float64(w.claimed)))
}

// Snapshot returns a point-in-time operational view: uptime, the
// owner's cumulative counters and queue depths, the per-worker pool,
// attached watchers, and dispatch-latency quantiles. It is the
// in-process form of what the stats wire message serves to remote
// clients.
func (p *Pool) Snapshot() Snapshot {
	p.Mu.Lock()
	snap := Snapshot{Uptime: p.Since(time.Now())}
	p.owner.StatsLocked(&snap)
	for _, w := range p.workers {
		snap.Running += len(w.outstanding)
		snap.Workers = append(snap.Workers, WorkerSnapshot{
			Name:      w.name,
			Rate:      w.believed(),
			Running:   len(w.outstanding),
			Completed: w.completed,
		})
	}
	window := make([]float64, p.latN)
	first := p.latW - p.latN + latencyWindow
	for i := range window {
		window[i] = p.latency[(first+i)%latencyWindow]
	}
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
		// A pool without a TraceRecorder replies with an empty list —
		// the request is still understood.
		var traces []Trace
		if p.traces != nil {
			traces = p.traces.Traces()
		}
		p.Reply(conn, &message{Type: msgTrace, Traces: traces})
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
// until the connection drops, then tears it down with task reissue.
func (p *Pool) serveWorker(conn net.Conn, br *bufio.Reader, name string, claimed units.Rate) {
	w := &Worker{
		name:        name,
		claimed:     claimed,
		conn:        conn,
		out:         make(chan []wireTask, 16), // assign frames in flight; a full queue means a wedged peer
		rate:        smoothing.New(p.nu),
		comm:        smoothing.New(p.nu),
		outstanding: make(map[int32]pendingTask),
	}
	w.rate.Observe(float64(claimed)) // prime beliefs with the claimed rating

	p.Mu.Lock()
	if p.closed {
		p.Mu.Unlock()
		conn.Close()
		return
	}
	p.workers = append(p.workers, w)
	pool := len(p.workers)
	w.Lease = p.owner.LeaseLocked(w)
	p.cond.Broadcast() // queued work may now be schedulable
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
			p.handleDone(w, m.Task, units.Seconds(m.Elapsed), m.Real)
		}
	}
	p.unregister(w)
}

// writeLoop drains a worker's outbound queue onto its connection as
// assign frames, batched into one write for as many as are queued. A
// write failure closes the connection, which surfaces in the read loop
// and triggers unregistration there.
func (p *Pool) writeLoop(w *Worker) {
	fw := newFrameWriter(w.conn)
	m := message{Type: msgAssign}
	if drain(fw, w.out, func(ts []wireTask) error {
		m.Tasks = ts
		return fw.message(&m)
	}) != nil {
		w.conn.Close()
	}
}

// commNoiseFloor is the smallest round-trip slack, in real seconds,
// accepted as a Γc link-overhead observation. Sub-millisecond slack on
// a local network is indistinguishable from scheduler jitter.
const commNoiseFloor = 1e-3

// handleDone records one completed task: load accounting, the §3.6
// smoothed rate / link-overhead observations, the latency window, and
// the owner's own bookkeeping. real is the worker-reported wall-clock
// processing time in seconds (0 if absent). Reports whose wire id no
// longer resolves (duplicate, or the lease was released while the task
// was in flight) are ignored.
func (p *Pool) handleDone(w *Worker, id int32, elapsed units.Seconds, real float64) {
	now := time.Now()
	p.Mu.Lock()
	pt, ok := w.outstanding[id]
	if !ok {
		p.Mu.Unlock()
		return
	}
	delete(w.outstanding, id)
	// pending is a float running sum: with fractional sizes it does not
	// return to exactly 0 by subtraction, and a residue makes a drained
	// worker look loaded — TimeUntilFirstIdle ≈ 0, which starves every
	// later GA run of its §3.4 budget. Nothing outstanding means idle.
	w.pending -= pt.t.Size
	if len(w.outstanding) == 0 || w.pending < 0 {
		w.pending = 0
	}
	w.completed++
	p.met.completed.Inc()
	lat := now.Sub(pt.sentAt).Seconds()
	p.latency[p.latW] = lat
	p.latW = (p.latW + 1) % latencyWindow
	if p.latN < latencyWindow {
		p.latN++
	}
	p.met.dispatchLatency.Observe(lat)
	if elapsed > 0 {
		w.rate.Observe(float64(pt.t.Size) / float64(elapsed))
	}
	if pt.solo && real > 0 && elapsed > 0 {
		// For tasks that never queued, round-trip slack — wall time from
		// dispatch to report minus wall processing time — is the link
		// overhead in real seconds. Scale it by elapsed/real (the
		// worker's simulated:real clock ratio) so Γc lives on the same
		// simulated clock as every other scheduler quantity, whatever
		// the worker's TimeScale. Smoothing and the solo-dispatch gate
		// bound the jitter this amplifies under heavy compression, and
		// slack below commNoiseFloor is discarded outright: at that
		// magnitude the measurement is goroutine-scheduling noise, and
		// the elapsed/real ratio would amplify it into a phantom link
		// cost large enough to distort placement (loopback tests under
		// the race detector hit exactly this).
		if slack := lat - real; slack > commNoiseFloor {
			w.comm.Observe(slack * float64(elapsed) / real)
		}
	}
	evs := p.owner.DoneLocked(w.Lease, w.name, pt.t, elapsed, now)
	p.cond.Broadcast()
	p.Mu.Unlock()
	p.Emit(evs)
}

// unregister removes a worker and hands its unfinished tasks to the
// owner (the paper's dynamic rescheduling on machine loss).
func (p *Pool) unregister(w *Worker) {
	w.conn.Close()
	now := time.Now()
	p.Mu.Lock()
	if w.gone {
		p.Mu.Unlock()
		return
	}
	w.gone = true
	for i, x := range p.workers {
		if x == w {
			p.workers = append(p.workers[:i], p.workers[i+1:]...)
			break
		}
	}
	lost := make([]task.Task, 0, len(w.outstanding))
	for _, pt := range w.outstanding {
		lost = append(lost, pt.t)
	}
	w.outstanding = nil
	// Reissue in deterministic (ID) order so reruns behave alike.
	sort.Slice(lost, func(i, j int) bool { return lost[i].ID < lost[j].ID })
	requeued, evs := p.owner.LostLocked(w.Lease, w.name, lost, now)
	w.Lease = nil
	p.met.reissued.Add(float64(requeued))
	close(w.out)
	pool := len(p.workers)
	p.cond.Broadcast()
	p.Mu.Unlock()
	p.Log.Info("worker left", "worker", w.name, "reissued", requeued, "workers", pool)
	if p.observer != nil {
		p.observer.OnWorkerLeft(observe.WorkerLeft{
			Name:     w.name,
			Reissued: requeued,
			Workers:  pool,
			At:       p.Since(now),
		})
	}
	p.Emit(evs)
}

// Run is the scheduling processor proper, for one lease: whenever q
// holds unscheduled tasks and a worker carrying the lease runs low, it
// snapshots those workers, sizes the next batch (§3.7 when sch
// implements sched.BatchSizer), runs sch outside the lock, and
// dispatches the resulting assignment. It returns when the pool closes
// or the owner reports the lease dead. q is guarded by Mu.
func (p *Pool) Run(lease any, q *task.Queue, sch sched.Batch) {
	log := p.Log
	if lease != nil {
		log = log.With("lease", lease)
	}
	for {
		p.Mu.Lock()
		for !p.closed && p.owner.LiveLocked(lease) && (q.Empty() || !p.wantsWorkLocked(lease)) {
			p.cond.Wait()
		}
		if p.closed || !p.owner.LiveLocked(lease) {
			p.Mu.Unlock()
			return
		}
		snap := p.snapshotLocked(lease)
		n := sched.DefaultBatchSize
		if bs, ok := sch.(sched.BatchSizer); ok {
			n = bs.NextBatchSize(q.Len(), snap)
		}
		if n > q.Len() {
			n = q.Len()
		}
		if n < 1 {
			n = 1
		}
		batch := q.PopN(n)
		p.scheduling[lease] = batch
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

		p.Mu.Lock()
		delete(p.scheduling, lease)
		dispatched := p.dispatchLocked(lease, snap.workers, asg)
		p.Mu.Unlock()
		if p.observer != nil {
			for _, d := range dispatched {
				p.observer.OnDispatch(d)
			}
		}
	}
}

// wantsWorkLocked reports whether some worker carrying the lease is
// running low on dispatched work — the pacing condition of the batch
// loop.
func (p *Pool) wantsWorkLocked(lease any) bool {
	for _, w := range p.workers {
		if w.Lease == lease && len(w.outstanding) < p.backlog {
			return true
		}
	}
	return false
}

// dispatchLocked sends an assignment to the workers it was computed
// for. Tasks assigned to a worker that disconnected or changed lease
// while the scheduler ran go back to the owner unsent. It returns the
// dispatch events for the observer; the caller emits them after
// releasing the lock.
func (p *Pool) dispatchLocked(lease any, workers []*Worker, asg sched.Assignment) []observe.Dispatch {
	now := time.Now()
	at := p.Since(now)
	live := !p.closed && p.owner.LiveLocked(lease)
	var events []observe.Dispatch
	for j, ts := range asg {
		if len(ts) == 0 {
			continue
		}
		w := workers[j]
		if !live || w.gone || w.Lease != lease {
			p.owner.UnsentLocked(lease, ts)
			continue
		}
		solo := len(w.outstanding) == 0
		p.met.dispatched.Add(float64(len(ts)))
		wire := toWire(ts)
		for i, t := range ts {
			id := p.owner.WireIDLocked(t)
			wire[i].ID = id
			w.outstanding[id] = pendingTask{t: t, sentAt: now, solo: solo}
			w.pending += t.Size
			solo = false
			if p.observer != nil {
				events = append(events, observe.Dispatch{Proc: j, Task: t.ID, At: at})
			}
		}
		select {
		case w.out <- wire:
		default:
			// The writer is wedged (worker stopped reading); drop the
			// connection — the read loop will reissue everything.
			w.conn.Close() //pnanalyze:ok locksend — Close on a wedged peer does not block
		}
	}
	p.cond.Broadcast()
	return events
}

// snapshot implements sched.State over a fixed view of the workers
// carrying one lease, so the batch scheduler sees a coherent system
// while the live one keeps moving underneath.
type snapshot struct {
	workers []*Worker
	rates   []units.Rate
	loads   []units.MFlops
	comm    []units.Seconds
	now     units.Seconds
}

// snapshotLocked captures the scheduler-visible state for one lease:
// the workers carrying it, in pool order.
func (p *Pool) snapshotLocked(lease any) *snapshot {
	m := 0
	for _, w := range p.workers {
		if w.Lease == lease {
			m++
		}
	}
	v := &snapshot{
		workers: make([]*Worker, 0, m),
		rates:   make([]units.Rate, 0, m),
		loads:   make([]units.MFlops, 0, m),
		comm:    make([]units.Seconds, 0, m),
		now:     p.Since(time.Now()),
	}
	for _, w := range p.workers {
		if w.Lease == lease {
			v.workers = append(v.workers, w)
			v.rates = append(v.rates, w.believed())
			v.loads = append(v.loads, w.pending)
			v.comm = append(v.comm, units.Seconds(w.comm.ValueOr(0)))
		}
	}
	return v
}

// M implements sched.State.
func (v *snapshot) M() int { return len(v.workers) }

// Rate implements sched.State.
func (v *snapshot) Rate(j int) units.Rate { return v.rates[j] }

// PendingLoad implements sched.State.
func (v *snapshot) PendingLoad(j int) units.MFlops { return v.loads[j] }

// CommEstimate implements sched.State.
func (v *snapshot) CommEstimate(j int) units.Seconds { return v.comm[j] }

// Now implements sched.State; live time is wall-clock seconds since the
// pool started.
func (v *snapshot) Now() units.Seconds { return v.now }

// TimeUntilFirstIdle implements sched.State with the semantics the
// simulator uses: the soonest moment a loaded worker runs dry, 0 if some
// worker already idles while others hold work, +Inf when nothing is
// loaded.
func (v *snapshot) TimeUntilFirstIdle() units.Seconds {
	idle, loaded := false, false
	min := units.Inf()
	for j, load := range v.loads {
		if load == 0 {
			idle = true
			continue
		}
		loaded = true
		if d := load.TimeOn(v.rates[j]); d < min {
			min = d
		}
	}
	if idle && loaded {
		return 0 // an idle worker exists while work is pending elsewhere
	}
	return min
}
