package dist

import (
	"strconv"

	"pnsched/internal/observe"
	"pnsched/internal/telemetry"
)

// instrument registers the pool's counters and histograms and its
// scrape-time collectors on reg. These are the pool-level series: one
// name each, whichever owner sits on the pool. Every task, batch and
// worker number is a read of Snapshot, the stats reply, so the two
// cannot disagree. What an owner adds of its own (the job dispatcher's
// pnsched_jobs_*) it registers itself. With reg nil (telemetry
// disabled) every instrument stays nil, and the telemetry instruments
// are nil-safe no-ops, so the hot paths carry no conditionals.
func (p *Pool) instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	snap := func(field func(Snapshot) int) func() float64 {
		return func() float64 { return float64(field(p.Snapshot())) }
	}
	reg.CounterFunc("pnsched_tasks_completed_total",
		"Tasks acknowledged done by workers.", snap(func(s Snapshot) int { return s.Completed }))
	reg.CounterFunc("pnsched_tasks_reissued_total",
		"Tasks pulled back from departed workers and requeued.", snap(func(s Snapshot) int { return s.Reissued }))
	p.met.dispatched = reg.Counter("pnsched_tasks_dispatched_total",
		"Tasks sent to workers (reissues dispatch again).")
	reg.CounterFunc("pnsched_batches_total",
		"Committed batch-scheduling decisions.", snap(func(s Snapshot) int { return s.Batches }))
	p.decodeErrors = reg.Counter("pnsched_protocol_decode_errors_total",
		"Malformed or invalid wire frames received.")
	p.met.dispatchLatency = reg.Histogram("pnsched_dispatch_latency_seconds",
		"Dispatch-to-done wall-clock round trip per task.",
		telemetry.ExpBuckets(0.001, 4, 10))
	p.batchWall = reg.Histogram("pnsched_batch_wall_seconds",
		"Wall-clock time one ScheduleBatch call took.",
		telemetry.ExpBuckets(0.0001, 4, 10))

	reg.CounterFunc("pnsched_tasks_submitted_total",
		"Tasks accepted for scheduling over the service lifetime.", snap(func(s Snapshot) int { return s.Submitted }))
	reg.GaugeFunc("pnsched_pending_tasks",
		"Tasks awaiting a batch decision.", snap(func(s Snapshot) int { return s.Pending }))
	reg.GaugeFunc("pnsched_running_tasks",
		"Tasks dispatched but not yet reported done.", snap(func(s Snapshot) int { return s.Running }))
	reg.GaugeFunc("pnsched_workers",
		"Currently connected workers.", snap(func(s Snapshot) int { return len(s.Workers) }))
	workers := func() []WorkerSnapshot { return p.Snapshot().Workers }
	workerName := func(_ int, w WorkerSnapshot) string { return w.Name }
	reg.SampleFunc("pnsched_worker_believed_rate_mflops",
		"Smoothed observed execution rate per worker (§3.6).", true,
		labelled(workers, "worker", workerName, func(w WorkerSnapshot) float64 { return float64(w.Rate) }))
	reg.SampleFunc("pnsched_worker_tasks_completed",
		"Tasks finished per connected worker.", false,
		labelled(workers, "worker", workerName, func(w WorkerSnapshot) float64 { return float64(w.Completed) }))

	if b := p.events; b != nil {
		reg.CounterFunc("pnsched_events_published_total",
			"Event frames published to the broadcaster.", func() float64 { return float64(b.Published()) })
		reg.CounterFunc("pnsched_events_dropped_total",
			"Event frames dropped across all watchers, past and present.", func() float64 { return float64(b.DroppedTotal()) })
		watcherIndex := func(i int, _ WatcherSnapshot) string { return strconv.Itoa(i) }
		reg.SampleFunc("pnsched_watcher_queue_depth",
			"Send-queue depth per attached watcher.", true,
			labelled(b.Watchers, "watcher", watcherIndex, func(w WatcherSnapshot) float64 { return float64(w.Queued) }))
		reg.SampleFunc("pnsched_watcher_dropped_total",
			"Frames dropped per attached watcher.", false,
			labelled(b.Watchers, "watcher", watcherIndex, func(w WatcherSnapshot) float64 { return float64(w.Dropped) }))
	}
}

// labelled returns a sample function reading one sample per element of
// list(), valued by value and labelled name=key(index, element).
func labelled[T any](list func() []T, name string, key func(int, T) string, value func(T) float64) func() []telemetry.Sample {
	return func() []telemetry.Sample {
		var out []telemetry.Sample
		for i, x := range list() {
			out = append(out, telemetry.Sample{
				Labels: []telemetry.Label{telemetry.L(name, key(i, x))},
				Value:  value(x),
			})
		}
		return out
	}
}

// NewMetricsObserver returns an observe.Observer that feeds the GA-side
// telemetry counters from the event stream: generations, full
// evaluations vs. genes actually scanned (the incremental engine's
// saving is the gap between them), §3.5 rebalancer work, the §3.4
// budget ledger, and island migration rounds. Wire it into the same
// observer chain as everything else; it never blocks.
func NewMetricsObserver(reg *telemetry.Registry) observe.Observer {
	runs := reg.Counter("pnsched_ga_runs_total",
		"GA evolution runs completed (one per GA batch decision).")
	generations := reg.Counter("pnsched_ga_generations_total",
		"GA generations evolved across all runs.")
	evaluations := reg.Counter("pnsched_ga_evaluations_total",
		"Fitness evaluations performed (full and incremental).")
	genes := reg.Counter("pnsched_ga_genes_evaluated_total",
		"Chromosome positions scanned by fitness evaluation.")
	rebalance := reg.Counter("pnsched_ga_rebalance_evaluations_total",
		"Evaluations spent by the §3.5 rebalancing heuristic.")
	budget := reg.Counter("pnsched_ga_budget_seconds_total",
		"Sum of §3.4 time-to-first-idle budgets granted to GA runs.")
	spent := reg.Counter("pnsched_ga_spent_seconds_total",
		"Sum of modelled evaluation cost billed by GA runs.")
	budgetStops := reg.Counter("pnsched_ga_budget_stops_total",
		"GA runs stopped by the §3.4 budget before their generation cap.")
	migrations := reg.Counter("pnsched_ga_migrations_total",
		"Island-model ring migration rounds.")
	migrants := reg.Counter("pnsched_ga_migrants_total",
		"Individuals exchanged by island-model migrations.")
	return observe.Funcs{
		EvolveDone: func(e observe.EvolveDone) {
			runs.Inc()
			generations.Add(float64(e.Generations))
			evaluations.Add(float64(e.Evaluations))
			genes.Add(float64(e.Genes))
			rebalance.Add(float64(e.RebalanceEvals))
			budget.Add(float64(e.Budget))
			spent.Add(float64(e.Spent))
		},
		BudgetStop: func(observe.BudgetStop) { budgetStops.Inc() },
		Migration: func(e observe.Migration) {
			migrations.Inc()
			migrants.Add(float64(e.Migrants))
		},
	}
}
