package dist

import (
	"encoding/json"
	"reflect"
	"testing"

	"pnsched/internal/observe"
)

// requireEveryFieldSet fails the test when any field reachable from v
// is its zero value, so a round-trip test over v cannot pass by losing a
// field that was never populated — and a field added to a wire type
// later fails here until the test's literal carries it.
func requireEveryFieldSet(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireEveryFieldSet(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("%s is empty: the round trip would not cover it", path)
		}
		for i := 0; i < v.Len(); i++ {
			requireEveryFieldSet(t, path, v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			t.Errorf("%s is nil: the round trip would not cover it", path)
			return
		}
		requireEveryFieldSet(t, path, v.Elem())
	default:
		if v.IsZero() {
			t.Errorf("%s is zero: the round trip would not cover it", path)
		}
	}
}

// TestEventWireRoundTrip sends one fully populated event of every kind
// the whole way a remote watcher sees it — Broadcaster, JSON encoding,
// decodeWireMessage, deliver — and requires the observer on the far
// side to receive exactly what was published.
func TestEventWireRoundTrip(t *testing.T) {
	batch := observe.BatchDecision{Invocation: 3, Scheduler: "PN", Tasks: 200, Procs: 50, Cost: 0.125, At: 17.5, Wall: 0.0625}
	generation := observe.GenerationBest{Generation: 41, Makespan: 96.875}
	migration := observe.Migration{Round: 2, Migrants: 8}
	dispatch := observe.Dispatch{Proc: 12, Task: 7, At: 18.25}
	budget := observe.BudgetStop{Generation: 77, Budget: 1.5, Spent: 1.4375}
	evolve := observe.EvolveDone{Generations: 312, Evaluations: 6240, Genes: 48000,
		RebalanceEvals: 40, Budget: 1.5, Spent: 1.4375, BestMakespan: 96.875, Reason: "budget"}
	joined := observe.WorkerJoined{Name: "node7-4412", Rate: 87.5, Workers: 3, At: 21.5}
	left := observe.WorkerLeft{Name: "node7-4412", Reissued: 5, Workers: 2, At: 44.25}
	queued := observe.JobQueued{ID: "job-0007", Tenant: "gold", Priority: 2, Tasks: 200, Queued: 3, At: 52.5}
	started := observe.JobStarted{ID: "job-0007", Tenant: "gold", Workers: 3, Waited: 4.25, At: 56.75}
	finished := observe.JobDone{ID: "job-0007", Tenant: "gold", State: "done", Completed: 200, Retries: 5, Duration: 30.5, At: 87.25}
	want := []any{batch, generation, migration, dispatch, budget, evolve, joined, left, queued, started, finished}
	for _, e := range want {
		requireEveryFieldSet(t, reflect.TypeOf(e).Name(), reflect.ValueOf(e))
	}

	b := NewBroadcaster(len(want), -1)
	sub := b.subscribe()
	b.OnBatchDecided(batch)
	b.OnGenerationBest(generation)
	b.OnMigration(migration)
	b.OnDispatch(dispatch)
	b.OnBudgetStop(budget)
	b.OnEvolveDone(evolve)
	b.OnWorkerJoined(joined)
	b.OnWorkerLeft(left)
	b.OnJobQueued(queued)
	b.OnJobStarted(started)
	b.OnJobDone(finished)
	b.closeAll()

	var got []any
	far := observe.Funcs{
		BatchDecided:   func(e observe.BatchDecision) { got = append(got, e) },
		GenerationBest: func(e observe.GenerationBest) { got = append(got, e) },
		Migration:      func(e observe.Migration) { got = append(got, e) },
		Dispatch:       func(e observe.Dispatch) { got = append(got, e) },
		BudgetStop:     func(e observe.BudgetStop) { got = append(got, e) },
		EvolveDone:     func(e observe.EvolveDone) { got = append(got, e) },
		WorkerJoined:   func(e observe.WorkerJoined) { got = append(got, e) },
		WorkerLeft:     func(e observe.WorkerLeft) { got = append(got, e) },
		JobQueued:      func(e observe.JobQueued) { got = append(got, e) },
		JobStarted:     func(e observe.JobStarted) { got = append(got, e) },
		JobDone:        func(e observe.JobDone) { got = append(got, e) },
	}
	for _, f := range drainSub(sub) {
		line, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		m, ev, err := decodeWireMessage(line)
		if err != nil || m != nil || ev == nil {
			t.Fatalf("decodeWireMessage(%s) = (%v, %v, %v), want an event frame", line, m, ev, err)
		}
		ev.deliver(far)
	}
	if len(got) != len(want) {
		t.Fatalf("far side received %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d changed on the wire:\n got %#v\nwant %#v", i, got[i], want[i])
		}
	}
}

// TestStatsAndTraceWireRoundTrip does the same for the two reply
// payloads: a fully populated Snapshot and Trace must come back out of
// the message envelope unchanged.
func TestStatsAndTraceWireRoundTrip(t *testing.T) {
	snap := Snapshot{
		Uptime: 120.5, Submitted: 1000, Completed: 640, Reissued: 5, Pending: 310, Running: 50, Batches: 4,
		Workers:  []WorkerSnapshot{{Name: "node7-4412", Rate: 87.5, Running: 30, Completed: 400}},
		Watchers: []WatcherSnapshot{{Queued: 12, Dropped: 3}},
		Latency:  LatencySummary{Samples: 512, P50: 0.125, P90: 0.5, P99: 1.25},
		Jobs:     &JobCounts{Queued: 2, Running: 1, Done: 14, Failed: 1, Cancelled: 3},
	}
	trace := Trace{
		Invocation: 3, Scheduler: "PN", Tasks: 200, Procs: 50, Cost: 0.125, At: 17.5, Wall: 0.0625,
		Generations: 312, Evaluations: 6240, Genes: 48000, RebalanceEvals: 40,
		Budget: 1.5, Spent: 1.4375, BestMakespan: 96.875, Reason: "budget", Migrations: 2,
		Curve: []TracePoint{{Generation: 12, Makespan: 112.25}, {Generation: 288, Makespan: 96.875}},
	}
	requireEveryFieldSet(t, "Snapshot", reflect.ValueOf(snap))
	requireEveryFieldSet(t, "Trace", reflect.ValueOf(trace))

	v := &wireVersion{Major: ProtoMajor, Minor: ProtoMinor}
	roundTrip := func(reply message) *message {
		t.Helper()
		line, err := json.Marshal(&reply)
		if err != nil {
			t.Fatal(err)
		}
		m, ev, err := decodeWireMessage(line)
		if err != nil || ev != nil || m == nil {
			t.Fatalf("decodeWireMessage(%s) = (%v, %v, %v), want a %s message", line, m, ev, err, reply.Type)
		}
		return m
	}
	if m := roundTrip(message{Type: msgStats, Proto: v, Stats: &snap}); m.Stats == nil || !reflect.DeepEqual(*m.Stats, snap) {
		t.Errorf("snapshot changed on the wire:\n got %+v\nwant %+v", m.Stats, snap)
	}
	if m := roundTrip(message{Type: msgTrace, Proto: v, Traces: []Trace{trace}}); !reflect.DeepEqual(m.Traces, []Trace{trace}) {
		t.Errorf("trace changed on the wire:\n got %+v\nwant %+v", m.Traces, trace)
	}
}
