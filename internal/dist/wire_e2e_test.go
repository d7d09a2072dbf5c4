package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/rng"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// rawFrame is a minimal, version-agnostic decoding of one wire frame,
// used to act as a hand-rolled watch client: it sees exactly what is
// on the wire (seq, kind, payload keys) without going through this
// build's typed decoder — which is the point when impersonating a
// client built against an older protocol minor.
type rawFrame struct {
	Type string `json:"type"`
	V    struct {
		Major int `json:"major"`
		Minor int `json:"minor"`
	} `json:"v"`
	Proto *struct {
		Major int `json:"major"`
		Minor int `json:"minor"`
	} `json:"proto"`
	Seq     uint64 `json:"seq"`
	Dropped uint64 `json:"dropped"`
	Kind    string `json:"kind"`
}

// dialWatch performs the watch handshake claiming the given protocol
// minor and returns a scanner positioned after the welcome.
func dialWatch(t *testing.T, addr string, minor int) (net.Conn, *bufio.Scanner) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := fmt.Fprintf(conn, `{"type":"watch","proto":{"major":1,"minor":%d}}`+"\n", minor); err != nil {
		t.Fatalf("handshake write: %v", err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no welcome frame: %v", sc.Err())
	}
	var welcome rawFrame
	if err := json.Unmarshal(sc.Bytes(), &welcome); err != nil {
		t.Fatalf("welcome does not decode: %v\n%s", err, sc.Bytes())
	}
	if welcome.Type != "welcome" || welcome.Proto == nil || welcome.Proto.Major != 1 {
		t.Fatalf("bad welcome: %s", sc.Bytes())
	}
	return conn, sc
}

// startWorkers launches the named workers against addr and returns a
// stop function that cancels and reaps them.
func startWorkers(t *testing.T, addr string, rates map[string]units.Rate) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for name, rate := range rates {
		wg.Add(1)
		go func(name string, rate units.Rate) {
			defer wg.Done()
			err := dist.RunWorker(ctx, addr, dist.WorkerConfig{
				Name: name, Rate: rate, TimeScale: 2e-4,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %s: %v", name, err)
			}
		}(name, rate)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestLegacyMinorClientDecodesNewServer plays a protocol-1.0 watch
// client against the current (1.1) server: the handshake must be
// accepted, every frame the 1.0 vocabulary knows must decode with its
// payload present, the 1.1-only kinds (worker_joined, worker_left)
// must appear on the wire and be skippable, and the shared sequence
// numbers must stay strictly increasing across skipped and delivered
// frames alike — the forward-compatibility contract in
// docs/wire-protocol.md.
func TestLegacyMinorClientDecodesNewServer(t *testing.T) {
	srv, _, addr := startStreamingServer(t, 1<<16)

	// Subscribe BEFORE any worker joins so the lifecycle frames are in
	// the live stream the legacy client reads.
	_, sc := dialWatch(t, addr, 0)

	stop := startWorkers(t, addr, map[string]units.Rate{"w-slow": 50, "w-fast": 200})
	defer stop()
	waitForWorkers(t, srv, 2)

	tasks := workload.Generate(workload.Spec{
		N:     80,
		Sizes: workload.Uniform{Lo: 10, Hi: 800},
	}, rng.New(5))
	srv.Append(tasks)
	if err := srv.WaitOpen(30 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	// The five kinds a 1.0 client was built against, each mapped to the
	// JSON key its payload lives under.
	legacyKinds := map[string]string{
		"batch_decided":   "batch",
		"generation_best": "generation",
		"migration":       "migration",
		"dispatch":        "dispatch",
		"budget_stop":     "budget",
	}
	var (
		lastSeq    uint64
		dispatches int
		skipped    int
		decoded    int
	)
	for dispatches < len(tasks) {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d dispatches (want %d): %v", dispatches, len(tasks), sc.Err())
		}
		var f rawFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("frame does not decode as generic JSON: %v\n%s", err, sc.Bytes())
		}
		if f.Type != "event" {
			t.Fatalf("non-event frame mid-stream: %s", sc.Bytes())
		}
		if f.V.Major != 1 {
			t.Fatalf("frame with major %d: %s", f.V.Major, sc.Bytes())
		}
		if f.Seq <= lastSeq {
			t.Fatalf("seq went %d -> %d; shared sequence must be strictly increasing", lastSeq, f.Seq)
		}
		if f.Dropped != 0 {
			t.Fatalf("frame reports %d drops with a %d-frame queue", f.Dropped, 1<<16)
		}
		lastSeq = f.Seq
		payloadKey, known := legacyKinds[f.Kind]
		if !known {
			// The 1.0 rule: a kind from a newer minor is skipped, never
			// fatal. It must indeed declare a newer minor.
			if f.V.Minor < 1 {
				t.Fatalf("unknown kind %q at minor %d; new kinds require a minor bump", f.Kind, f.V.Minor)
			}
			skipped++
			continue
		}
		var payload map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &payload); err != nil {
			t.Fatal(err)
		}
		if _, ok := payload[payloadKey]; !ok {
			t.Fatalf("known kind %q arrived without its %q payload: %s", f.Kind, payloadKey, sc.Bytes())
		}
		decoded++
		if f.Kind == "dispatch" {
			dispatches++
		}
	}
	if skipped < 2 {
		t.Errorf("legacy client skipped %d newer-minor frames, want at least the 2 worker_joined", skipped)
	}
	if decoded == 0 {
		t.Error("legacy client decoded no frames")
	}
	srv.Close()
}

// TestLateWatcherReplaysRing completes a whole run with no watcher
// attached, then subscribes: the catch-up ring must deliver the most
// recent frames with their original, contiguous sequence numbers, and
// a subsequent burst of live events must continue from exactly the
// last replayed seq — the replay/live boundary is seamless.
func TestLateWatcherReplaysRing(t *testing.T) {
	const replay = 32
	b := dist.NewBroadcaster(1<<16, replay)
	srv, addr := serveOpen(t, streamingConfig(b))

	stop := startWorkers(t, addr, map[string]units.Rate{"only": 150})
	defer stop()
	waitForWorkers(t, srv, 1)

	first := workload.Generate(workload.Spec{
		N:     60,
		Sizes: workload.Uniform{Lo: 10, Hi: 500},
	}, rng.New(13))
	srv.Append(first)
	if err := srv.WaitOpen(30 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	// Everything above happened unobserved. Subscribe now: the ring is
	// full (far more than `replay` frames were published), so exactly
	// `replay` frames arrive immediately.
	_, sc := dialWatch(t, addr, 1)
	frames := make([]rawFrame, 0, replay)
	for len(frames) < replay {
		if !sc.Scan() {
			t.Fatalf("stream ended during replay after %d frames: %v", len(frames), sc.Err())
		}
		var f rawFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("replayed frame does not decode: %v", err)
		}
		frames = append(frames, f)
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].Seq != frames[i-1].Seq+1 {
			t.Fatalf("replay seq jumps %d -> %d at frame %d; ring replay must be contiguous",
				frames[i-1].Seq, frames[i].Seq, i)
		}
	}
	if frames[0].Seq < uint64(len(first))-replay {
		t.Errorf("replay starts at seq %d; with >%d frames published it must cover only the newest %d",
			frames[0].Seq, len(first), replay)
	}
	for _, f := range frames {
		if f.Dropped != 0 {
			t.Fatalf("replayed frame carries dropped=%d; pre-subscription history is not a drop", f.Dropped)
		}
	}

	// Live continuation: new events must follow with no gap from the
	// last replayed frame.
	second := workload.Generate(workload.Spec{
		N:     20,
		Sizes: workload.Uniform{Lo: 10, Hi: 300},
	}, rng.New(17))
	srv.Append(second)
	last := frames[len(frames)-1].Seq
	dispatches := 0
	for dispatches < len(second) {
		if !sc.Scan() {
			t.Fatalf("live stream ended after %d second-batch dispatches: %v", dispatches, sc.Err())
		}
		var f rawFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		if f.Seq != last+1 {
			t.Fatalf("live frame seq %d after %d; replay/live boundary must not gap or duplicate", f.Seq, last)
		}
		last = f.Seq
		if f.Kind == "dispatch" {
			dispatches++
		}
	}
	srv.Close()
}

// TestStatsSnapshotOverWire runs a live workload and requests a stats
// snapshot over the wire mid-flight and after completion: the reply
// must be populated (counters, per-worker breakdown, latency
// quantiles, watcher accounting) and must agree with the server's own
// Snapshot.
func TestStatsSnapshotOverWire(t *testing.T) {
	srv, b, addr := startStreamingServer(t, 1<<16)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// One watcher, so the snapshot has a watcher to account for.
	w, err := dist.WatchEvents(ctx, addr, nil)
	if err != nil {
		t.Fatalf("WatchEvents: %v", err)
	}
	defer w.Close()
	waitForSubscribers(t, b, 1)

	stop := startWorkers(t, addr, map[string]units.Rate{"w1": 60, "w2": 180})
	defer stop()
	waitForWorkers(t, srv, 2)

	tasks := workload.Generate(workload.Spec{
		N:     100,
		Sizes: workload.Uniform{Lo: 50, Hi: 1000},
	}, rng.New(23))
	srv.Append(tasks)
	if err := srv.WaitOpen(30 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	snap, err := dist.FetchStats(ctx, addr)
	if err != nil {
		t.Fatalf("FetchStats: %v", err)
	}
	if snap.Submitted != len(tasks) || snap.Completed != len(tasks) {
		t.Errorf("snapshot counters %d/%d, want %d submitted and completed",
			snap.Submitted, snap.Completed, len(tasks))
	}
	if snap.Pending != 0 || snap.Running != 0 {
		t.Errorf("queue depths %d pending / %d running after completion, want 0/0", snap.Pending, snap.Running)
	}
	if snap.Uptime <= 0 {
		t.Errorf("uptime %v, want > 0", snap.Uptime)
	}
	if snap.Batches == 0 {
		t.Error("batches = 0 after a completed run")
	}
	if len(snap.Workers) != 2 {
		t.Fatalf("snapshot lists %d workers, want 2", len(snap.Workers))
	}
	total := 0
	for _, ws := range snap.Workers {
		if ws.Rate <= 0 {
			t.Errorf("worker %s reports rate %v", ws.Name, ws.Rate)
		}
		total += ws.Completed
	}
	if total != len(tasks) {
		t.Errorf("per-worker completions sum to %d, want %d", total, len(tasks))
	}
	if len(snap.Watchers) != 1 {
		t.Errorf("snapshot lists %d watchers, want 1", len(snap.Watchers))
	}
	if snap.Latency.Samples == 0 {
		t.Error("latency summary empty after 100 completions")
	}
	if !(snap.Latency.P50 <= snap.Latency.P90 && snap.Latency.P90 <= snap.Latency.P99) {
		t.Errorf("latency quantiles not monotone: %+v", snap.Latency)
	}

	// The wire snapshot and the in-process one must agree on the stable
	// counters.
	local := srv.Snapshot()
	if local.Submitted != snap.Submitted || local.Completed != snap.Completed || local.Batches != snap.Batches {
		t.Errorf("wire snapshot %+v disagrees with in-process %+v", snap, local)
	}

	// A stats request must not have disturbed the watch stream.
	if d := w.Dropped(); d != 0 {
		t.Errorf("watcher dropped %d frames", d)
	}
	srv.Close()
}
