package jobs

import (
	"pnsched/internal/telemetry"
)

// jobMetrics holds the dispatcher's telemetry instruments. As with the
// pool's own, the zero value (telemetry disabled) is fully usable: every
// instrument is nil and the telemetry instruments are nil-safe no-ops.
type jobMetrics struct {
	submitted        *telemetry.Counter
	finished         map[string]*telemetry.Counter // by terminal state
	journalRecords   *telemetry.Counter
	journalBytes     *telemetry.Counter
	journalSnapshots *telemetry.Counter
	snapshotBytes    *telemetry.Counter

	schedLatency *telemetry.Histogram
}

// newJobMetrics registers the job-level instruments and scrape-time
// collectors on reg — everything named pnsched_jobs_*, none of them for
// a dispatcher running the open job. The task-, worker- and
// watcher-level series are the pool's pnsched_*, the same under Serve
// as under ServeJobs.
func newJobMetrics(reg *telemetry.Registry, d *Dispatcher) *jobMetrics {
	if reg == nil || d.open != nil {
		return &jobMetrics{}
	}
	m := &jobMetrics{
		submitted: reg.Counter("pnsched_jobs_submitted_total",
			"Jobs accepted by the dispatcher over its lifetime."),
		finished: map[string]*telemetry.Counter{},
		journalRecords: reg.Counter("pnsched_jobs_journal_records_total",
			"State-transition records appended to the job journal."),
		journalBytes: reg.Counter("pnsched_jobs_journal_bytes_total",
			"Bytes appended to the job journal."),
		journalSnapshots: reg.Counter("pnsched_jobs_journal_snapshots_total",
			"Journal snapshots written (each truncates the replayed history)."),
		snapshotBytes: reg.Counter("pnsched_jobs_journal_snapshot_bytes_total",
			"Bytes of journal snapshots written; by default at most the journal bytes appended plus the last snapshot."),
		schedLatency: reg.Histogram("pnsched_jobs_scheduling_latency_seconds",
			"Submission-to-start wait per job (time spent queued).",
			telemetry.ExpBuckets(0.001, 4, 10)),
	}
	for _, state := range []string{StateDone, StateFailed, StateCancelled} {
		m.finished[state] = reg.Counter("pnsched_jobs_finished_total",
			"Jobs reaching a terminal state, by state.",
			telemetry.L("state", state))
	}

	reg.SampleFunc("pnsched_jobs_queue_depth",
		"Queued (not yet started) jobs per tenant.", true,
		func() []telemetry.Sample {
			d.mu.Lock()
			defer d.mu.Unlock()
			depth := map[string]int{}
			for _, j := range d.pending {
				depth[j.Tenant]++
			}
			var out []telemetry.Sample
			for tenant, n := range depth {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{telemetry.L("tenant", tenant)},
					Value:  float64(n),
				})
			}
			return out
		})
	reg.SampleFunc("pnsched_jobs_by_state",
		"Jobs by state: queued/running are current, terminal states are lifetime totals.", true,
		func() []telemetry.Sample {
			d.mu.Lock()
			defer d.mu.Unlock()
			counts := []struct {
				state string
				n     int
			}{
				{StateQueued, len(d.pending)},
				{StateRunning, len(d.active)},
				{StateDone, d.durable.Done},
				{StateFailed, d.durable.Failed},
				{StateCancelled, d.durable.Cancelled},
			}
			out := make([]telemetry.Sample, 0, len(counts))
			for _, c := range counts {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{telemetry.L("state", c.state)},
					Value:  float64(c.n),
				})
			}
			return out
		})
	reg.GaugeFunc("pnsched_jobs_journal_replay_seconds",
		"How long the startup journal replay took; 0 without a journal.", func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return d.replaySec
		})
	reg.GaugeFunc("pnsched_jobs_workers_leased",
		"Workers currently leased to a running job.", func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			n := 0
			for _, w := range d.pool.WorkersLocked() {
				if w.Lease != nil {
					n++
				}
			}
			return float64(n)
		})
	return m
}
