package jobs

import (
	"pnsched/internal/dist"
	"pnsched/internal/telemetry"
)

// jobMetrics holds the dispatcher's telemetry instruments. As with the
// pool's own, the zero value (telemetry disabled) is fully usable: every
// instrument is nil and the telemetry instruments are nil-safe no-ops.
type jobMetrics struct {
	journalRecords   *telemetry.Counter
	journalWrites    *telemetry.Counter
	journalBytes     *telemetry.Counter
	journalSnapshots *telemetry.Counter
	snapshotBytes    *telemetry.Counter

	schedLatency *telemetry.Histogram
}

// newJobMetrics registers the job-level instruments and scrape-time
// collectors on reg — everything named pnsched_jobs_*, none of them for
// a dispatcher running the open job. The task-, worker- and
// watcher-level series are the pool's pnsched_*, the same under Serve
// as under ServeJobs. The job counts are reads of the durable state the
// stats reply reports, so they continue across a journaled restart.
func newJobMetrics(reg *telemetry.Registry, d *Dispatcher) *jobMetrics {
	if reg == nil || d.open != nil {
		return &jobMetrics{}
	}
	// Job IDs count from 1 and are never reused.
	reg.CounterFunc("pnsched_jobs_submitted_total",
		"Jobs accepted by the dispatcher over its lifetime.", func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(d.durable.NextSeq)
		})
	m := &jobMetrics{
		journalRecords: reg.Counter("pnsched_jobs_journal_records_total",
			"State-transition records appended to the job journal."),
		journalWrites: reg.Counter("pnsched_jobs_journal_writes_total",
			"Writes to the job journal; records per write is the group-commit ratio."),
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
	counts := func() dist.JobCounts {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.countsLocked()
	}
	reg.SampleFunc("pnsched_jobs_finished_total",
		"Jobs reaching a terminal state, by state.", false,
		func() []telemetry.Sample { return stateSamples(counts())[2:] })

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
		func() []telemetry.Sample { return stateSamples(counts()) })
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

// stateSamples renders c as one sample per state, labelled state=…, in
// lifecycle order: queued, running, then the three terminal states.
func stateSamples(c dist.JobCounts) []telemetry.Sample {
	states := []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}
	out := make([]telemetry.Sample, len(states))
	for i, n := range []int{c.Queued, c.Running, c.Done, c.Failed, c.Cancelled} {
		out[i] = telemetry.Sample{Labels: []telemetry.Label{telemetry.L("state", states[i])}, Value: float64(n)}
	}
	return out
}
