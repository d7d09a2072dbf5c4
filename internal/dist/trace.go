package dist

import (
	"context"
	"sync"

	"pnsched/internal/observe"
	"pnsched/internal/units"
)

// DefaultTraceRing is the number of recent batch decision traces a
// TraceRecorder retains.
const DefaultTraceRing = 16

// maxTracePoints caps one trace's generation-best curve. The curve is
// improvement-compressed (a point is recorded only when the best
// makespan drops), so real runs stay far below the cap; it exists so a
// pathological run cannot grow a trace without bound.
const maxTracePoints = 512

// TracePoint is one improvement on a trace's generation-best makespan
// curve: at Generation the best predicted makespan dropped to Makespan.
type TracePoint struct {
	Generation int           `json:"generation"`
	Makespan   units.Seconds `json:"makespan"`
}

// Trace is the full record of one batch-scheduling decision — the
// paper's per-decision convergence trajectory (Fig. 3) plus the §3.4
// budget ledger, kept by the server in a bounded ring and retrievable
// over the wire (protocol 1.2) or via Server.Traces.
type Trace struct {
	// Invocation, Scheduler, Tasks, Procs, Cost, At and Wall mirror the
	// batch_decided event that closed the trace.
	Invocation int           `json:"invocation"`
	Scheduler  string        `json:"scheduler"`
	Tasks      int           `json:"tasks"`
	Procs      int           `json:"procs"`
	Cost       units.Seconds `json:"cost"`
	At         units.Seconds `json:"at"`
	Wall       units.Seconds `json:"wall,omitempty"`
	// Generations, Evaluations, Genes, RebalanceEvals, Budget, Spent,
	// BestMakespan and Reason are the GA run's EvolveDone ledger; all
	// zero for heuristic schedulers, which run no GA.
	Generations    int           `json:"generations,omitempty"`
	Evaluations    int           `json:"evaluations,omitempty"`
	Genes          int           `json:"genes,omitempty"`
	RebalanceEvals int           `json:"rebalance_evals,omitempty"`
	Budget         units.Seconds `json:"budget,omitempty"`
	Spent          units.Seconds `json:"spent,omitempty"`
	BestMakespan   units.Seconds `json:"best_makespan,omitempty"`
	Reason         string        `json:"reason,omitempty"`
	// Migrations is the number of island ring exchanges during the run.
	Migrations int `json:"migrations,omitempty"`
	// Curve is the generation-best makespan trajectory, one point per
	// improvement, in generation order.
	Curve []TracePoint `json:"curve,omitempty"`
}

// TraceRecorder assembles decision traces from the observer stream: it
// accumulates GenerationBest / Migration / EvolveDone events into a
// staging area and, on the BatchDecided event that ends every decision,
// seals them into one Trace in a bounded ring (oldest evicted first).
//
// It relies on the runtime's per-decision event ordering — all GA
// events of a decision are delivered before its BatchDecided — which
// both the simulator and the live server guarantee. It is safe for
// concurrent use; island-model runs deliver generation events from the
// coordinator goroutine.
type TraceRecorder struct {
	observe.Funcs // no-op for the events a trace does not consume

	mu      sync.Mutex
	ring    []Trace
	ringW   int
	ringN   int
	staging Trace
}

// NewTraceRecorder returns a recorder retaining the last
// DefaultTraceRing traces.
func NewTraceRecorder() *TraceRecorder {
	return &TraceRecorder{ring: make([]Trace, DefaultTraceRing)}
}

// OnGenerationBest implements observe.Observer: improvements extend the
// staged curve.
func (t *TraceRecorder) OnGenerationBest(e observe.GenerationBest) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.staging.Curve
	if len(c) > 0 && e.Makespan >= c[len(c)-1].Makespan {
		return // no improvement: curve stays compressed
	}
	if len(c) >= maxTracePoints {
		return
	}
	t.staging.Curve = append(c, TracePoint{Generation: e.Generation, Makespan: e.Makespan})
}

// OnMigration implements observe.Observer.
func (t *TraceRecorder) OnMigration(observe.Migration) {
	t.mu.Lock()
	t.staging.Migrations++
	t.mu.Unlock()
}

// OnEvolveDone implements observe.Observer: the run's ledger is staged
// for the decision about to close.
func (t *TraceRecorder) OnEvolveDone(e observe.EvolveDone) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.staging.Generations = e.Generations
	t.staging.Evaluations = e.Evaluations
	t.staging.Genes = e.Genes
	t.staging.RebalanceEvals = e.RebalanceEvals
	t.staging.Budget = e.Budget
	t.staging.Spent = e.Spent
	t.staging.BestMakespan = e.BestMakespan
	t.staging.Reason = e.Reason
}

// OnBatchDecided implements observe.Observer: the staged GA state plus
// the decision's own fields become one sealed Trace, and staging resets
// for the next decision.
func (t *TraceRecorder) OnBatchDecided(e observe.BatchDecision) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.staging
	tr.Invocation = e.Invocation
	tr.Scheduler = e.Scheduler
	tr.Tasks = e.Tasks
	tr.Procs = e.Procs
	tr.Cost = e.Cost
	tr.At = e.At
	tr.Wall = e.Wall
	t.ring[t.ringW] = tr
	t.ringW = (t.ringW + 1) % len(t.ring)
	if t.ringN < len(t.ring) {
		t.ringN++
	}
	t.staging = Trace{}
}

// Traces returns the retained decision traces, oldest first. The curve
// slices are copied; callers may keep the result. A nil recorder
// retains none.
func (t *TraceRecorder) Traces() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, t.ringN)
	start := t.ringW - t.ringN
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.ringN; i++ {
		tr := t.ring[(start+i)%len(t.ring)]
		tr.Curve = append([]TracePoint(nil), tr.Curve...)
		out = append(out, tr)
	}
	return out
}

// FetchTraces dials a running server, requests its retained decision
// traces, and returns them oldest first. Like FetchStats it is a
// one-shot exchange: the request is a bare {"type":"trace"}, the reply
// a versioned trace list. Servers predating protocol 1.2 do not know
// the message and drop the connection, which surfaces as an error.
func FetchTraces(ctx context.Context, addr string) ([]Trace, error) {
	m, err := exchange(ctx, addr, &message{Type: msgTrace}, "1.2")
	if err != nil {
		return nil, err
	}
	return m.Traces, nil
}
