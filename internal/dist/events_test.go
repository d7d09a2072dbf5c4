package dist

import (
	"testing"
	"time"

	"pnsched/internal/observe"
	"pnsched/internal/units"
)

// drainSub collects every frame currently queued (and all future ones
// until the channel closes) from a subscriber.
func drainSub(s *eventSub) []eventFrame {
	var out []eventFrame
	for f := range s.out {
		out = append(out, f)
	}
	return out
}

// TestBroadcasterIdenticalOrder publishes a mixed event stream and
// checks two keeping-up subscribers observe byte-for-byte the same
// frames in the same order, with strictly increasing shared sequence
// numbers.
func TestBroadcasterIdenticalOrder(t *testing.T) {
	b := NewBroadcaster(1024, 0)
	s1, s2 := b.subscribe(), b.subscribe()
	if n := len(b.Watchers()); n != 2 {
		t.Fatalf("len(Watchers()) = %d, want 2", n)
	}

	const rounds = 100
	for i := 0; i < rounds; i++ {
		b.OnBatchDecided(observe.BatchDecision{Invocation: i + 1, Scheduler: "PN", Tasks: 10, Procs: 2})
		b.OnGenerationBest(observe.GenerationBest{Generation: i, Makespan: units.Seconds(100 - i)})
		b.OnDispatch(observe.Dispatch{Proc: i % 2, Task: 42})
	}
	b.closeAll()

	f1, f2 := drainSub(s1), drainSub(s2)
	if len(f1) != 3*rounds || len(f2) != 3*rounds {
		t.Fatalf("subscribers got %d and %d frames, want %d each", len(f1), len(f2), 3*rounds)
	}
	for i := range f1 {
		if f1[i].Seq != f2[i].Seq || f1[i].Kind != f2[i].Kind {
			t.Fatalf("frame %d diverges: (%d, %s) vs (%d, %s)",
				i, f1[i].Seq, f1[i].Kind, f2[i].Seq, f2[i].Kind)
		}
		if f1[i].Seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d, want %d (no drops occurred)", i, f1[i].Seq, i+1)
		}
		if s1.dropped.Load() != 0 || s2.dropped.Load() != 0 {
			t.Fatalf("drop counters %d/%d, want 0 for keeping-up subscribers",
				s1.dropped.Load(), s2.dropped.Load())
		}
	}
}

// TestBroadcasterSlowSubscriberDropsWithoutBlocking wedges one
// subscriber (queue of 1, never drained) while another keeps up, and
// checks publication completes promptly — the scheduler-side
// guarantee — with the overflow counted against only the slow
// subscriber.
func TestBroadcasterSlowSubscriberDropsWithoutBlocking(t *testing.T) {
	const events = 500
	b := NewBroadcaster(1, 0)
	slow := b.subscribe()          // broadcaster-wide queue: 1 frame
	fast := b.subscribeBuf(events) // provisioned to absorb everything
	start := time.Now()
	for i := 0; i < events; i++ {
		b.OnDispatch(observe.Dispatch{Proc: 0, Task: 1})
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("publishing %d events with a wedged subscriber took %v: publish blocked", events, elapsed)
	}
	b.closeAll()

	fastFrames := drainSub(fast)
	if len(fastFrames) != events {
		t.Errorf("fast subscriber got %d frames, want all %d", len(fastFrames), events)
	}
	if got := slow.dropped.Load(); got != events-1 {
		t.Errorf("slow subscriber dropped %d frames, want %d (queue of 1, nothing drained)",
			got, events-1)
	}
	// The one queued frame is still deliverable and carries seq 1.
	slowFrames := drainSub(slow)
	if len(slowFrames) != 1 || slowFrames[0].Seq != 1 {
		t.Errorf("slow subscriber queue = %+v, want exactly the first frame", slowFrames)
	}
}

// TestBroadcasterUnsubscribeIdempotent detaches a subscriber twice and
// publishes afterwards; neither may panic or deliver further frames.
func TestBroadcasterUnsubscribeIdempotent(t *testing.T) {
	b := NewBroadcaster(4, 0)
	s := b.subscribe()
	b.unsubscribe(s)
	b.unsubscribe(s)
	b.OnMigration(observe.Migration{Round: 1, Migrants: 2})
	if frames := drainSub(s); len(frames) != 0 {
		t.Fatalf("unsubscribed subscriber received %d frames", len(frames))
	}
	if n := len(b.Watchers()); n != 0 {
		t.Fatalf("len(Watchers()) = %d after unsubscribe, want 0", n)
	}
}

// TestBroadcasterClosedRejectsSubscribers checks a subscription after
// closeAll yields an immediately-ended stream instead of a leak.
func TestBroadcasterClosedRejectsSubscribers(t *testing.T) {
	b := NewBroadcaster(4, 0)
	b.closeAll()
	s := b.subscribe()
	if _, open := <-s.out; open {
		t.Fatal("subscription after closeAll delivered a frame")
	}
	b.OnMigration(observe.Migration{Round: 1}) // must not panic
}

// TestBroadcasterReplayCatchUp publishes past a late subscriber and
// checks it receives exactly the ring's worth of history — the newest
// frames, in order, with their original sequence numbers — then the
// live stream with no gap, duplicate, or phantom drop at the boundary.
func TestBroadcasterReplayCatchUp(t *testing.T) {
	const replay = 8
	b := NewBroadcaster(64, replay)
	for i := 0; i < 100; i++ {
		b.OnDispatch(observe.Dispatch{Proc: i, Task: 1})
	}
	late := b.subscribe()
	for i := 100; i < 110; i++ {
		b.OnDispatch(observe.Dispatch{Proc: i, Task: 1})
	}
	b.closeAll()

	frames := drainSub(late)
	if len(frames) != replay+10 {
		t.Fatalf("late subscriber got %d frames, want %d replayed + 10 live", len(frames), replay)
	}
	// The replay starts at the oldest retained frame: seq 93 of 100.
	for i, f := range frames {
		if want := uint64(100 - replay + 1 + i); f.Seq != want {
			t.Fatalf("frame %d has seq %d, want %d (continuous replay→live hand-off)", i, f.Seq, want)
		}
		if f.Dropped != 0 {
			t.Fatalf("frame %d carries dropped=%d; history missed before subscribing is not a drop", i, f.Dropped)
		}
	}
	if got := late.dropped.Load(); got != 0 {
		t.Fatalf("late subscriber's drop counter = %d, want 0", got)
	}
}

// TestBroadcasterReplayShortHistory subscribes when fewer frames exist
// than the ring holds: everything published so far is replayed, from
// seq 1.
func TestBroadcasterReplayShortHistory(t *testing.T) {
	b := NewBroadcaster(64, 8)
	b.OnMigration(observe.Migration{Round: 1})
	b.OnMigration(observe.Migration{Round: 2})
	s := b.subscribe()
	b.closeAll()
	frames := drainSub(s)
	if len(frames) != 2 || frames[0].Seq != 1 || frames[1].Seq != 2 {
		t.Fatalf("short-history replay = %+v, want the full 2-frame history", frames)
	}
}

// TestBroadcasterReplayDisabled checks a negative replay size turns
// catch-up off: a late subscriber starts from the live stream only.
func TestBroadcasterReplayDisabled(t *testing.T) {
	b := NewBroadcaster(64, -1)
	b.OnMigration(observe.Migration{Round: 1})
	s := b.subscribe()
	b.OnMigration(observe.Migration{Round: 2})
	b.closeAll()
	frames := drainSub(s)
	if len(frames) != 1 || frames[0].Seq != 2 {
		t.Fatalf("replay-disabled subscriber got %+v, want only the live frame (seq 2)", frames)
	}
}

// TestBroadcasterReplayCappedAtQueue builds a broadcaster whose replay
// request exceeds the queue and checks the effective ring is the queue
// size — a fresh subscriber must be able to hold its whole replay.
func TestBroadcasterReplayCappedAtQueue(t *testing.T) {
	b := NewBroadcaster(4, 100)
	for i := 0; i < 20; i++ {
		b.OnDispatch(observe.Dispatch{Proc: i, Task: 1})
	}
	s := b.subscribe()
	b.closeAll()
	frames := drainSub(s)
	if len(frames) != 4 {
		t.Fatalf("replay delivered %d frames with a queue of 4, want 4", len(frames))
	}
	if frames[0].Seq != 17 || frames[3].Seq != 20 {
		t.Fatalf("capped replay spans seq %d..%d, want the newest 17..20", frames[0].Seq, frames[3].Seq)
	}
}

// TestDispatchPayloadsShareChunks: OnDispatch takes its payload from a
// shared chunk, so with one subscriber it averages under 1/32
// allocation per event.
func TestDispatchPayloadsShareChunks(t *testing.T) {
	b := NewBroadcaster(0, 0)
	s := b.subscribe()
	done := make(chan struct{})
	go func() {
		for range s.out {
		}
		close(done)
	}()
	defer func() { b.closeAll(); <-done }()
	const events = 32
	if got := testing.AllocsPerRun(100, func() {
		for i := range events {
			b.OnDispatch(observe.Dispatch{Proc: i % 4, Task: 7, At: 1.5})
		}
	}); got >= 1 {
		t.Errorf("%d dispatch events allocate %v times, want under once", events, got)
	}
}
