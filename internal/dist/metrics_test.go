package dist

import (
	"strings"
	"testing"

	"pnsched/internal/observe"
	"pnsched/internal/task"
	"pnsched/internal/telemetry"
	"pnsched/internal/units"
)

// TestTraceRecorderSealsOnBatchDecided replays one decision's event
// sequence in the guaranteed order and checks the sealed trace carries
// the curve, the ledger, and the decision fields — and that staging
// resets for the next decision.
func TestTraceRecorderSealsOnBatchDecided(t *testing.T) {
	r := NewTraceRecorder()
	r.OnGenerationBest(observe.GenerationBest{Generation: 0, Makespan: 140})
	r.OnGenerationBest(observe.GenerationBest{Generation: 3, Makespan: 150}) // worse: skipped
	r.OnGenerationBest(observe.GenerationBest{Generation: 3, Makespan: 140}) // equal: skipped
	r.OnGenerationBest(observe.GenerationBest{Generation: 12, Makespan: 110})
	r.OnMigration(observe.Migration{Round: 1, Migrants: 4})
	r.OnEvolveDone(observe.EvolveDone{
		Generations: 40, Evaluations: 800, Genes: 16000, RebalanceEvals: 6,
		Budget: 2, Spent: 1.5, BestMakespan: 110, Reason: "generations",
	})
	r.OnBatchDecided(observe.BatchDecision{
		Invocation: 1, Scheduler: "PN", Tasks: 200, Procs: 8,
		Cost: 1.5, At: 10, Wall: 0.25,
	})

	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("Traces() returned %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Invocation != 1 || tr.Scheduler != "PN" || tr.Tasks != 200 || tr.Wall != 0.25 {
		t.Errorf("decision fields not sealed: %+v", tr)
	}
	if tr.Generations != 40 || tr.Spent != 1.5 || tr.Reason != "generations" {
		t.Errorf("EvolveDone ledger not sealed: %+v", tr)
	}
	if tr.Migrations != 1 {
		t.Errorf("Migrations = %d, want 1", tr.Migrations)
	}
	want := []TracePoint{{0, 140}, {12, 110}}
	if len(tr.Curve) != len(want) || tr.Curve[0] != want[0] || tr.Curve[1] != want[1] {
		t.Errorf("curve = %+v, want %+v (improvement-compressed)", tr.Curve, want)
	}

	// A heuristic decision after the GA one must not inherit its ledger.
	r.OnBatchDecided(observe.BatchDecision{Invocation: 2, Scheduler: "EF", Tasks: 50, Procs: 8})
	traces = r.Traces()
	if len(traces) != 2 {
		t.Fatalf("Traces() returned %d traces, want 2", len(traces))
	}
	if got := traces[1]; got.Generations != 0 || got.Migrations != 0 || len(got.Curve) != 0 {
		t.Errorf("staging leaked into the next decision: %+v", got)
	}
}

// TestTraceRecorderRingEvictsOldest overfills the ring and checks only
// the most recent traces survive, oldest first.
func TestTraceRecorderRingEvictsOldest(t *testing.T) {
	r := NewTraceRecorder()
	const pushed = DefaultTraceRing + 5
	for i := 1; i <= pushed; i++ {
		r.OnBatchDecided(observe.BatchDecision{Invocation: i})
	}
	traces := r.Traces()
	if len(traces) != DefaultTraceRing {
		t.Fatalf("ring of %d holds %d traces", DefaultTraceRing, len(traces))
	}
	for i, tr := range traces {
		if want := pushed - DefaultTraceRing + 1 + i; tr.Invocation != want {
			t.Errorf("traces[%d].Invocation = %d, want %d", i, tr.Invocation, want)
		}
	}
}

// TestTraceRecorderCurveCapped feeds more improvements than
// maxTracePoints and checks the curve stops growing instead of growing
// without bound.
func TestTraceRecorderCurveCapped(t *testing.T) {
	r := NewTraceRecorder()
	for i := 0; i < maxTracePoints+100; i++ {
		r.OnGenerationBest(observe.GenerationBest{
			Generation: i, Makespan: units.Seconds(1e6 - float64(i)),
		})
	}
	r.OnBatchDecided(observe.BatchDecision{Invocation: 1})
	if got := len(r.Traces()[0].Curve); got != maxTracePoints {
		t.Errorf("curve has %d points, want the %d cap", got, maxTracePoints)
	}
}

// TestTraceRecorderDefaultRing checks the ring holds DefaultTraceRing
// traces, not an unusable zero-length ring.
func TestTraceRecorderDefaultRing(t *testing.T) {
	r := NewTraceRecorder()
	for i := 1; i <= DefaultTraceRing+2; i++ {
		r.OnBatchDecided(observe.BatchDecision{Invocation: i})
	}
	if got := len(r.Traces()); got != DefaultTraceRing {
		t.Errorf("default ring retained %d traces, want %d", got, DefaultTraceRing)
	}
}

// TestBroadcasterDropsSurfaceInMetrics wedges a slow subscriber
// (queue of 1, never drained), publishes a known number of events, and
// checks the per-watcher and broadcaster-wide drop counters come out of
// the telemetry registry's /metrics rendering — the deterministic
// wiring test for the scrape-time collectors.
func TestBroadcasterDropsSurfaceInMetrics(t *testing.T) {
	const events = 10
	b := NewBroadcaster(1, 0)
	reg := telemetry.NewRegistry()
	p := NewPool(PoolConfig{Events: b, Metrics: reg}, &coreOwner{})
	defer p.Close()

	slow := b.subscribe() // queue of 1, nothing drains it
	defer b.unsubscribe(slow)
	for i := 0; i < events; i++ {
		b.OnDispatch(observe.Dispatch{Proc: 0, Task: task.ID(i)})
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"pnsched_events_published_total 10",
		"pnsched_events_dropped_total 9",
		`pnsched_watcher_dropped_total{watcher="0"} 9`,
		`pnsched_watcher_queue_depth{watcher="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Cumulative totals must survive the watcher detaching.
	b.unsubscribe(slow)
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if out := sb.String(); !strings.Contains(out, "pnsched_events_dropped_total 9") {
		t.Error("broadcaster-wide drop total lost when the watcher detached")
	}
}

// TestMetricsObserverCounts feeds the GA observer one evolve ledger and
// a migration and checks the counters render with the fed values.
func TestMetricsObserverCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	obs := NewMetricsObserver(reg)
	obs.OnEvolveDone(observe.EvolveDone{
		Generations: 40, Evaluations: 800, Genes: 16000, RebalanceEvals: 6,
		Budget: 2, Spent: 1.5, BestMakespan: 110, Reason: "budget",
	})
	obs.OnBudgetStop(observe.BudgetStop{Generation: 40, Budget: 2, Spent: 1.5})
	obs.OnMigration(observe.Migration{Round: 1, Migrants: 4})

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"pnsched_ga_runs_total 1",
		"pnsched_ga_generations_total 40",
		"pnsched_ga_evaluations_total 800",
		"pnsched_ga_genes_evaluated_total 16000",
		"pnsched_ga_rebalance_evaluations_total 6",
		"pnsched_ga_budget_seconds_total 2",
		"pnsched_ga_spent_seconds_total 1.5",
		"pnsched_ga_budget_stops_total 1",
		"pnsched_ga_migrations_total 1",
		"pnsched_ga_migrants_total 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
