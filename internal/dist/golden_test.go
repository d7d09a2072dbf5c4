package dist

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pnsched/internal/observe"
	"pnsched/internal/task"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the canonical frames")

// canonicalFrames is one fully-populated frame per event kind, in the
// exact form the broadcaster publishes (version stamped, sequence and
// drop counters set). The golden files freeze their wire encoding: a
// byte in them changing means the protocol changed, which requires a
// version bump, not a silent re-record.
func canonicalFrames() map[string]eventFrame {
	v := wireVersion{Major: ProtoMajor, Minor: ProtoMinor}
	return map[string]eventFrame{
		"event_batch_decided": {Type: msgEvent, V: v, Seq: 1, Kind: kindBatchDecided,
			Batch: &observe.BatchDecision{Invocation: 3, Scheduler: "PN", Tasks: 200, Procs: 50, Cost: 0.125, At: 17.5, Wall: 0.0625}},
		"event_generation_best": {Type: msgEvent, V: v, Seq: 2, Kind: kindGenerationBest,
			Generation: &observe.GenerationBest{Generation: 41, Makespan: 96.875}},
		"event_migration": {Type: msgEvent, V: v, Seq: 3, Kind: kindMigration,
			Migration: &observe.Migration{Round: 2, Migrants: 8}},
		"event_dispatch": {Type: msgEvent, V: v, Seq: 4, Dropped: 7, Kind: kindDispatch,
			Dispatch: &observe.Dispatch{Proc: 12, Task: 0, At: 18.25}},
		"event_budget_stop": {Type: msgEvent, V: v, Seq: 5, Kind: kindBudgetStop,
			Budget: &observe.BudgetStop{Generation: 77, Budget: 1.5, Spent: 1.4375}},
		"event_evolve_done": {Type: msgEvent, V: v, Seq: 8, Kind: kindEvolveDone,
			Evolve: &observe.EvolveDone{Generations: 312, Evaluations: 6240, Genes: 48000,
				RebalanceEvals: 40, Budget: 1.5, Spent: 1.4375, BestMakespan: 96.875, Reason: "budget"}},
		"event_worker_joined": {Type: msgEvent, V: v, Seq: 6, Kind: kindWorkerJoined,
			Joined: &observe.WorkerJoined{Name: "node7-4412", Rate: 87.5, Workers: 3, At: 21.5}},
		"event_worker_left": {Type: msgEvent, V: v, Seq: 7, Kind: kindWorkerLeft,
			Left: &observe.WorkerLeft{Name: "node7-4412", Reissued: 5, Workers: 2, At: 44.25}},
		"event_job_queued": {Type: msgEvent, V: v, Seq: 9, Kind: kindJobQueued,
			Queued: &observe.JobQueued{ID: "job-0007", Tenant: "gold", Priority: 2, Tasks: 200, Queued: 3, At: 52.5}},
		"event_job_started": {Type: msgEvent, V: v, Seq: 10, Kind: kindJobStarted,
			Started: &observe.JobStarted{ID: "job-0007", Tenant: "gold", Workers: 3, Waited: 4.25, At: 56.75}},
		"event_job_done": {Type: msgEvent, V: v, Seq: 11, Kind: kindJobDone,
			Finished: &observe.JobDone{ID: "job-0007", Tenant: "gold", State: "done", Completed: 200, Retries: 5, Duration: 30.5, At: 87.25}},
	}
}

// TestGoldenStatsReply freezes the wire encoding of the stats reply —
// the 1.1 request/response message — the same way the event goldens
// freeze the event stream.
func TestGoldenStatsReply(t *testing.T) {
	reply := message{
		Type:  msgStats,
		Proto: &wireVersion{Major: ProtoMajor, Minor: ProtoMinor},
		Stats: &Snapshot{
			Uptime:    120.5,
			Submitted: 1000,
			Completed: 640,
			Reissued:  5,
			Pending:   310,
			Running:   50,
			Batches:   4,
			Workers: []WorkerSnapshot{
				{Name: "node7-4412", Rate: 87.5, Running: 30, Completed: 400},
				{Name: "node9-118", Rate: 42.25, Running: 20, Completed: 240},
			},
			Watchers: []WatcherSnapshot{{Queued: 12, Dropped: 3}},
			Latency:  LatencySummary{Samples: 512, P50: 0.125, P90: 0.5, P99: 1.25},
			Jobs:     &JobCounts{Queued: 2, Running: 1, Done: 14, Failed: 1, Cancelled: 3},
		},
	}
	path := filepath.Join("testdata", "golden", "stats_reply.json")
	encoded, err := json.Marshal(&reply)
	if err != nil {
		t.Fatal(err)
	}
	encoded = append(encoded, '\n')
	if *updateGolden {
		if err := os.WriteFile(path, encoded, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(encoded, golden) {
		t.Errorf("encoding changed:\n got %s\nwant %s", encoded, golden)
	}

	m, ev, err := decodeWireMessage(bytes.TrimSuffix(golden, []byte("\n")))
	if err != nil || ev != nil || m == nil {
		t.Fatalf("decodeWireMessage(golden) = (%v, %v, %v), want a stats message", m, ev, err)
	}
	if m.Stats == nil {
		t.Fatal("stats reply decoded without its snapshot")
	}
	snap := *m.Stats
	if snap.Completed != 640 || len(snap.Workers) != 2 || snap.Latency.Samples != 512 {
		t.Errorf("snapshot round trip lost data: %+v", snap)
	}
}

// TestGoldenTraceReply freezes the wire encoding of the trace reply —
// the 1.2 request/response message carrying the retained per-batch
// decision traces.
func TestGoldenTraceReply(t *testing.T) {
	reply := message{
		Type:  msgTrace,
		Proto: &wireVersion{Major: ProtoMajor, Minor: ProtoMinor},
		Traces: []Trace{{
			Invocation: 3, Scheduler: "PN", Tasks: 200, Procs: 50,
			Cost: 0.125, At: 17.5, Wall: 0.0625,
			Generations: 312, Evaluations: 6240, Genes: 48000,
			RebalanceEvals: 40, Budget: 1.5, Spent: 1.4375,
			BestMakespan: 96.875, Reason: "budget", Migrations: 2,
			Curve: []TracePoint{
				{Generation: 0, Makespan: 140.5},
				{Generation: 12, Makespan: 112.25},
				{Generation: 288, Makespan: 96.875},
			},
		}},
	}
	path := filepath.Join("testdata", "golden", "trace_reply.json")
	encoded, err := json.Marshal(&reply)
	if err != nil {
		t.Fatal(err)
	}
	encoded = append(encoded, '\n')
	if *updateGolden {
		if err := os.WriteFile(path, encoded, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(encoded, golden) {
		t.Errorf("encoding changed:\n got %s\nwant %s", encoded, golden)
	}

	m, ev, err := decodeWireMessage(bytes.TrimSuffix(golden, []byte("\n")))
	if err != nil || ev != nil || m == nil {
		t.Fatalf("decodeWireMessage(golden) = (%v, %v, %v), want a trace message", m, ev, err)
	}
	if len(m.Traces) != 1 {
		t.Fatalf("trace reply decoded with %d traces, want 1", len(m.Traces))
	}
	tr := m.Traces[0]
	if tr.Generations != 312 || len(tr.Curve) != 3 || tr.Curve[2].Makespan != 96.875 {
		t.Errorf("trace round trip lost data: %+v", tr)
	}
}

// TestGoldenJobReplies freezes the wire encoding of the four job
// exchange replies (1.3) — including the in-band error form — the same
// way the stats and trace goldens freeze theirs.
func TestGoldenJobReplies(t *testing.T) {
	v := &wireVersion{Major: ProtoMajor, Minor: ProtoMinor}
	acceptedJob := JobInfo{
		ID: "job-0007", Tenant: "gold", Priority: 2, State: "queued",
		Scheduler: "PN", Tasks: 200, RetryBudget: 64, Position: 3,
		SubmittedAt: 52.5,
	}
	replies := map[string]message{
		"job_submit_reply": {Type: msgJobSubmit, Proto: v,
			Jobs: []JobInfo{acceptedJob}},
		"job_status_reply": {Type: msgJobStatus, Proto: v,
			Jobs: []JobInfo{
				{ID: "job-0006", Tenant: "free", State: "done", Scheduler: "MX",
					Tasks: 120, Completed: 120, RetryBudget: 64,
					SubmittedAt: 40.25, StartedAt: 41.5, FinishedAt: 50.75},
				{ID: "job-0007", Tenant: "gold", Priority: 2, State: "running",
					Scheduler: "PN", Tasks: 200, Completed: 30, Retries: 5,
					RetryBudget: 64, Workers: 3, SubmittedAt: 52.5, StartedAt: 56.75},
			}},
		"job_cancel_reply": {Type: msgJobCancel, Proto: v,
			Jobs: []JobInfo{
				{ID: "job-0007", Tenant: "gold", Priority: 2, State: "cancelled",
					Scheduler: "PN", Tasks: 200, Completed: 30, Retries: 5,
					RetryBudget: 64, SubmittedAt: 52.5, StartedAt: 56.75, FinishedAt: 60.25},
			}},
		"job_result_reply": {Type: msgJobResult, Proto: v,
			Result: &JobResult{
				ID: "job-0006", Tenant: "free", State: "done",
				Tasks: 120, Completed: 120, Elapsed: 480.5, Duration: 9.25,
				Workers: []JobWorkerResult{
					{Name: "node7-4412", Tasks: 80, Work: 32000.5},
					{Name: "node9-118", Tasks: 40, Work: 16000.25},
				},
			}},
		"job_error_reply": {Type: msgJobStatus, Proto: v,
			Error: `dist: unknown job "job-9999"`},
	}
	for name, reply := range replies {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", name+".json")
			encoded, err := json.Marshal(&reply)
			if err != nil {
				t.Fatal(err)
			}
			encoded = append(encoded, '\n')
			if *updateGolden {
				if err := os.WriteFile(path, encoded, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(encoded, golden) {
				t.Errorf("encoding changed:\n got %s\nwant %s", encoded, golden)
			}

			m, ev, err := decodeWireMessage(bytes.TrimSuffix(golden, []byte("\n")))
			if err != nil || ev != nil || m == nil {
				t.Fatalf("decodeWireMessage(golden) = (%v, %v, %v), want a %s message", m, ev, err, reply.Type)
			}
			again, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			again = append(again, '\n')
			if !bytes.Equal(again, golden) {
				t.Errorf("decode→encode not byte-identical:\n got %s\nwant %s", again, golden)
			}
		})
	}
}

// TestGoldenEventFrames freezes the wire encoding of every event kind:
// encoding the canonical frame must reproduce the golden bytes, and
// decode→encode of the golden bytes must be byte-identical (a pure
// round trip — nothing is lost, reordered, or defaulted differently).
func TestGoldenEventFrames(t *testing.T) {
	for name, frame := range canonicalFrames() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", name+".json")
			encoded, err := json.Marshal(&frame)
			if err != nil {
				t.Fatal(err)
			}
			encoded = append(encoded, '\n') // json.Encoder's line framing
			if *updateGolden {
				if err := os.WriteFile(path, encoded, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(encoded, golden) {
				t.Errorf("encoding changed:\n got %s\nwant %s", encoded, golden)
			}

			// Round trip through the real decoder.
			m, ev, err := decodeWireMessage(bytes.TrimSuffix(golden, []byte("\n")))
			if err != nil || m != nil || ev == nil {
				t.Fatalf("decodeWireMessage(golden) = (%v, %v, %v), want an event frame", m, ev, err)
			}
			again, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			again = append(again, '\n')
			if !bytes.Equal(again, golden) {
				t.Errorf("decode→encode not byte-identical:\n got %s\nwant %s", again, golden)
			}
		})
	}
}

// TestGoldenHotFrames pins the frames the hand codec writes and reads:
// assign and done, recorded once with json.Marshal before the hand
// codec existed and never regenerated (-update-golden leaves them
// alone), and the dispatch event, whose golden TestGoldenEventFrames
// keeps. The hand encoder must reproduce each byte for byte, and
// decoding each must give back the frame it was recorded from.
func TestGoldenHotFrames(t *testing.T) {
	dispatch := canonicalFrames()["event_dispatch"]
	frames := map[string]any{
		"assign":         &message{Type: msgAssign, Tasks: []task.Task{{ID: 7, Size: 420.5}, {ID: 12, Size: 33}}},
		"done":           &message{Type: msgDone, Task: 7, Elapsed: 1.338, Real: 0.0013},
		"event_dispatch": &dispatch,
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if encoded, ok := encodeHot(frame); !ok || !bytes.Equal(encoded, golden) {
				t.Errorf("hand encoding:\n got %s\nwant %s", encoded, golden)
			}
			m, ev, err := decodeWireMessage(bytes.TrimSuffix(golden, []byte("\n")))
			if decoded := either(m, ev); err != nil || !reflect.DeepEqual(decoded, frame) {
				t.Errorf("decodeWireMessage(golden) = %+v, %v; want %+v", decoded, err, frame)
			}
		})
	}
}

// TestGoldenFutureMinor decodes frames recorded as if sent by a server
// speaking a NEWER minor version of the protocol: known kinds carrying
// unknown extra fields must decode to the known payload (extra fields
// ignored), and an entirely unknown kind must be skippable — no error,
// delivered as a no-op — rather than breaking the stream.
func TestGoldenFutureMinor(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "future_minor.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("future_minor.jsonl holds %d frames, want at least a known and an unknown kind", len(lines))
	}
	var delivered int
	obs := observe.Funcs{
		BatchDecided:   func(observe.BatchDecision) { delivered++ },
		GenerationBest: func(observe.GenerationBest) { delivered++ },
		Migration:      func(observe.Migration) { delivered++ },
		Dispatch:       func(observe.Dispatch) { delivered++ },
		BudgetStop:     func(observe.BudgetStop) { delivered++ },
		JobQueued:      func(observe.JobQueued) { delivered++ },
		JobDone:        func(observe.JobDone) { delivered++ },
	}
	for i, line := range lines {
		m, ev, err := decodeWireMessage(line)
		if err != nil {
			t.Fatalf("frame %d from a newer-minor server rejected: %v\n%s", i, err, line)
		}
		if m != nil {
			t.Fatalf("frame %d decoded as a control message: %s", i, line)
		}
		if ev != nil {
			ev.deliver(obs)
		}
	}
	if delivered == 0 {
		t.Error("no known-kind event survived the newer-minor stream; extra fields must be ignored, not fatal")
	}
}

// TestEventFrameValidation covers the rejection rules: wrong major,
// unknown kind at our own minor, missing payload, missing kind.
func TestEventFrameValidation(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"wrong major", `{"type":"event","v":{"major":2,"minor":0},"seq":1,"kind":"dispatch","dispatch":{"proc":0,"task":1,"at":0}}`},
		{"unknown kind at own minor", `{"type":"event","v":{"major":1,"minor":0},"seq":1,"kind":"topology_changed"}`},
		{"missing payload", `{"type":"event","v":{"major":1,"minor":0},"seq":1,"kind":"dispatch"}`},
		{"missing kind", `{"type":"event","v":{"major":1,"minor":0},"seq":1}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, ev, err := decodeWireMessage([]byte(c.line)); err == nil {
				t.Fatalf("accepted invalid event frame (%+v): %s", ev, c.line)
			}
		})
	}
}
