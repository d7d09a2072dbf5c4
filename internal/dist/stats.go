package dist

import (
	"context"
	"errors"

	"pnsched/internal/units"
)

// Snapshot is a point-in-time view of one live server: queue depths,
// cumulative counters, the connected worker pool, attached watchers,
// and dispatch-latency quantiles. It is what Server.Snapshot returns
// in-process and what the stats wire message carries to remote clients
// (pnserver -stats).
type Snapshot struct {
	// Uptime is seconds since the server started — the same clock the
	// event frames' At fields use.
	Uptime units.Seconds `json:"uptime"`
	// Submitted, Completed and Reissued are cumulative task counters:
	// tasks handed to Submit, tasks acknowledged done by workers, and
	// tasks pulled back from departed workers for rescheduling.
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Reissued  int `json:"reissued"`
	// Pending and Running are current queue depths: tasks awaiting a
	// batch decision, and tasks dispatched but not yet done.
	Pending int `json:"pending"`
	Running int `json:"running"`
	// Batches is the number of batch-scheduling decisions committed.
	Batches int `json:"batches"`
	// Workers describes the connected pool, in registration order.
	Workers []WorkerSnapshot `json:"workers,omitempty"`
	// Watchers describes the attached event-stream subscribers, in
	// unspecified order.
	Watchers []WatcherSnapshot `json:"watchers,omitempty"`
	// Latency summarises recent dispatch→done wall-clock round trips.
	Latency LatencySummary `json:"latency,omitzero"`
	// Jobs counts the dispatcher's jobs by state (protocol 1.3). Nil
	// under Serve, whose one open job is no job to count.
	Jobs *JobCounts `json:"jobs,omitempty"`
}

// WorkerSnapshot is one connected worker's slice of a Snapshot.
type WorkerSnapshot struct {
	// Name is the worker's hello identity.
	Name string `json:"name"`
	// Rate is the worker's believed execution rate in Mflop/s: the
	// claimed rating smoothed with observed throughput (§3.6).
	Rate units.Rate `json:"rate"`
	// Running and Completed are this worker's in-flight and finished
	// task counts.
	Running   int `json:"running"`
	Completed int `json:"completed"`
}

// WatcherSnapshot is one event-stream subscriber's slice of a
// Snapshot: how full its send queue currently is and how many frames
// the drop-and-count policy has discarded for it so far.
type WatcherSnapshot struct {
	Queued  int    `json:"queued"`
	Dropped uint64 `json:"dropped,omitempty"`
}

// LatencySummary holds quantiles over the server's sliding window of
// dispatch→done wall-clock round trips (latencyWindow samples). A zero
// Samples means no task has completed yet and the quantiles are
// meaningless.
type LatencySummary struct {
	Samples int           `json:"samples"`
	P50     units.Seconds `json:"p50"`
	P90     units.Seconds `json:"p90"`
	P99     units.Seconds `json:"p99"`
}

// FetchStats dials a running server, requests one stats snapshot, and
// returns it. The exchange is a one-shot connection: the client's
// first (and only) frame is {"type":"stats"}, the server replies with
// a versioned snapshot and closes. A 1.0 server does not know the
// message and drops the connection, which surfaces here as an error —
// stats require a 1.1+ server.
func FetchStats(ctx context.Context, addr string) (Snapshot, error) {
	m, err := exchange(ctx, addr, &message{Type: msgStats}, "1.1")
	if err != nil {
		return Snapshot{}, err
	}
	if m.Stats == nil {
		return Snapshot{}, errors.New("dist: stats reply without snapshot")
	}
	return *m.Stats, nil
}
