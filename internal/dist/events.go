package dist

import (
	"sync"
	"sync/atomic"

	"pnsched/internal/observe"
)

// DefaultEventQueue is the per-subscriber frame buffer used when
// Broadcaster is built with a non-positive queue size. It absorbs the
// burst of Dispatch events a large batch decision emits back-to-back;
// a subscriber that falls further behind than this starts losing
// frames (counted, never blocking).
const DefaultEventQueue = 256

// DefaultEventReplay is the catch-up ring size used when Broadcaster
// is built with replay == 0: the number of recently published frames a
// late subscriber receives before its live stream begins. Pass a
// negative replay to disable catch-up entirely.
const DefaultEventReplay = 64

// Broadcaster fans the typed Observer events of one live server out to
// any number of wire subscribers. It is the server side of the event
// stream: the scheduler's GA events and the server's batch/dispatch
// events all flow in through the observe.Observer interface it
// implements, are stamped with a protocol version and a publication
// sequence number, and are copied into every subscriber's bounded send
// queue.
//
// Publication never blocks: a subscriber whose queue is full — a slow
// or stalled watch client — loses the frame and has its drop counter
// incremented instead, so event streaming can never back-pressure the
// scheduling loop. Every subscriber observes the surviving frames in
// identical order (publication order, as witnessed by strictly
// increasing Seq values shared across subscribers).
//
// A catch-up ring holds the most recent frames (up to the replay size
// given to NewBroadcaster): a subscriber attaching mid-run first
// receives those, then its live stream, with no seq discontinuity —
// replay and live frames carry the publication seq they were stamped
// with, and the hand-off happens under the same lock publish takes,
// so nothing can interleave between the last replayed frame and the
// first live one.
//
// A frame's payload is shared by the ring and every queue that holds
// the frame, and never written once published. Dispatch events, one per
// task sent, take theirs from a chunk of dispatchChunk payloads carved
// under the same lock, so a task's event costs a share of one
// allocation rather than one of its own, watched or not; a chunk is
// freed once no queued frame points into it.
type Broadcaster struct {
	queue int

	// Cumulative fan-out counters, surviving unsubscribes (unlike the
	// per-watcher figures of Watchers) — the broadcaster's telemetry.
	published atomic.Uint64
	dropTotal atomic.Uint64

	mu     sync.Mutex
	seq    uint64
	subs   map[*eventSub]struct{}
	closed bool

	// ring is the catch-up buffer: the last len(ring) published frames,
	// ringN of which are valid, written circularly at ringW. Replay is
	// disabled when ring is nil.
	ring  []eventFrame
	ringW int
	ringN int

	// dispatches is what remains of the current payload chunk.
	dispatches []observe.Dispatch
}

// dispatchChunk is the number of dispatch payloads allocated together.
const dispatchChunk = 64

// eventSub is one subscriber: a bounded frame queue drained by the
// subscriber's writer goroutine, plus the cumulative count of frames
// dropped because the queue was full.
type eventSub struct {
	out     chan eventFrame
	dropped atomic.Uint64
}

// NewBroadcaster returns a broadcaster whose subscribers buffer up to
// queue frames each (non-positive selects DefaultEventQueue) and whose
// catch-up ring replays up to replay recent frames to late subscribers
// (zero selects DefaultEventReplay, negative disables replay). The
// ring never exceeds the queue size: a fresh subscriber's queue must
// be able to hold its entire replay.
func NewBroadcaster(queue, replay int) *Broadcaster {
	if queue <= 0 {
		queue = DefaultEventQueue
	}
	if replay == 0 {
		replay = DefaultEventReplay
	}
	if replay > queue {
		replay = queue
	}
	b := &Broadcaster{queue: queue, subs: map[*eventSub]struct{}{}}
	if replay > 0 {
		b.ring = make([]eventFrame, replay)
	}
	return b
}

// subscribe attaches a new subscriber. The catch-up ring is copied
// into its queue first, then frames published from this moment on are
// queued for it (or counted as dropped) — all under one critical
// section, so the replayed frames and the live stream form a single
// seq-ordered sequence with no gap and no duplicate.
func (b *Broadcaster) subscribe() *eventSub { return b.subscribeBuf(b.queue) }

// subscribeBuf is subscribe with an explicit queue size, letting tests
// pit differently-provisioned subscribers against each other.
func (b *Broadcaster) subscribeBuf(queue int) *eventSub {
	s := &eventSub{out: make(chan eventFrame, queue)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(s.out) // stillborn: reads see an immediately-ended stream
		return s
	}
	// Replay the newest ring frames that fit the queue, oldest first.
	// Frames older than the queue can hold are not "drops" — they
	// predate this subscription — so the drop counter stays zero.
	if n := min(b.ringN, queue); n > 0 {
		start := b.ringW - n
		if start < 0 {
			start += len(b.ring)
		}
		for i := 0; i < n; i++ {
			s.out <- b.ring[(start+i)%len(b.ring)] //pnanalyze:ok locksend — s.out is freshly made with cap >= n, so these sends cannot block
		}
	}
	b.subs[s] = struct{}{}
	return s
}

// unsubscribe detaches a subscriber and closes its queue, ending its
// writer loop. Idempotent, and safe to race with publish: both hold mu.
func (b *Broadcaster) unsubscribe(s *eventSub) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[s]; !ok {
		return
	}
	delete(b.subs, s)
	close(s.out)
}

// closeAll ends every subscriber's stream and rejects future
// subscriptions — the broadcaster's part of Pool.Close.
func (b *Broadcaster) closeAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		delete(b.subs, s)
		close(s.out)
	}
}

// publish stamps one frame and copies it to every subscriber without
// ever blocking. Holding mu across the fan-out is what gives all
// subscribers the same frame order; the critical section is bounded
// (non-blocking channel sends only), so event emission stays cheap for
// the scheduling and GA goroutines delivering the events.
func (b *Broadcaster) publish(f eventFrame) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.publishLocked(f)
	}
}

// publishLocked is publish on an open broadcaster. Caller holds mu.
func (b *Broadcaster) publishLocked(f eventFrame) {
	f.Type = msgEvent
	f.V = wireVersion{Major: ProtoMajor, Minor: ProtoMinor}
	b.seq++
	f.Seq = b.seq
	b.published.Add(1)
	if b.ring != nil {
		b.ring[b.ringW] = f
		b.ringW = (b.ringW + 1) % len(b.ring)
		if b.ringN < len(b.ring) {
			b.ringN++
		}
	}
	for s := range b.subs {
		select {
		case s.out <- f:
		default:
			s.dropped.Add(1)
			b.dropTotal.Add(1)
		}
	}
}

// Published reports the total frames published over the broadcaster's
// lifetime.
func (b *Broadcaster) Published() uint64 { return b.published.Load() }

// DroppedTotal reports the cumulative frames dropped across all
// subscribers, past and present — unlike Watchers, it does not reset
// when a slow watcher disconnects.
func (b *Broadcaster) DroppedTotal() uint64 { return b.dropTotal.Load() }

// Watchers reports each attached subscriber's current queue depth and
// cumulative drop count — the per-watcher slice of a stats Snapshot.
func (b *Broadcaster) Watchers() []WatcherSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]WatcherSnapshot, 0, len(b.subs))
	for s := range b.subs {
		out = append(out, WatcherSnapshot{Queued: len(s.out), Dropped: s.dropped.Load()})
	}
	return out
}

// OnBatchDecided implements observe.Observer.
func (b *Broadcaster) OnBatchDecided(e observe.BatchDecision) {
	b.publish(eventFrame{Kind: kindBatchDecided, Batch: &e})
}

// OnGenerationBest implements observe.Observer.
func (b *Broadcaster) OnGenerationBest(e observe.GenerationBest) {
	b.publish(eventFrame{Kind: kindGenerationBest, Generation: &e})
}

// OnMigration implements observe.Observer.
func (b *Broadcaster) OnMigration(e observe.Migration) {
	b.publish(eventFrame{Kind: kindMigration, Migration: &e})
}

// OnDispatch implements observe.Observer. The payload is carved from
// the current chunk.
func (b *Broadcaster) OnDispatch(e observe.Dispatch) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if len(b.dispatches) == 0 {
		b.dispatches = make([]observe.Dispatch, dispatchChunk)
	}
	d := &b.dispatches[0]
	b.dispatches = b.dispatches[1:]
	*d = e
	b.publishLocked(eventFrame{Kind: kindDispatch, Dispatch: d})
}

// OnBudgetStop implements observe.Observer.
func (b *Broadcaster) OnBudgetStop(e observe.BudgetStop) {
	b.publish(eventFrame{Kind: kindBudgetStop, Budget: &e})
}

// OnEvolveDone implements observe.Observer (protocol 1.2).
func (b *Broadcaster) OnEvolveDone(e observe.EvolveDone) {
	b.publish(eventFrame{Kind: kindEvolveDone, Evolve: &e})
}

// OnWorkerJoined implements observe.Observer (protocol 1.1).
func (b *Broadcaster) OnWorkerJoined(e observe.WorkerJoined) {
	b.publish(eventFrame{Kind: kindWorkerJoined, Joined: &e})
}

// OnWorkerLeft implements observe.Observer (protocol 1.1).
func (b *Broadcaster) OnWorkerLeft(e observe.WorkerLeft) {
	b.publish(eventFrame{Kind: kindWorkerLeft, Left: &e})
}
