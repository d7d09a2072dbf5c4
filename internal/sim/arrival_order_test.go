package sim

import (
	"fmt"
	"reflect"
	"testing"

	"pnsched/internal/cluster"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// refArrival is an arrival as an event: the reference loop pushes one
// per task before the run starts.
type refArrival struct{ t task.Task }

// runReference is the simulator loop with arrivals as queued events:
// every task's arrival is pushed, in slice order, before any other
// event, and each step pops the queue's top. Run must reproduce its
// order exactly.
func runReference(cfg Config) Result {
	s := newSimulator(cfg)
	for _, t := range cfg.Tasks {
		s.queue.Push(t.Arrival, refArrival{t: t})
	}
	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		maxTime = units.Inf()
	}
	for s.completed < len(cfg.Tasks) {
		if cfg.Interrupt != nil && cfg.Interrupt() {
			break
		}
		item, ok := s.queue.Pop()
		if !ok || item.Time > maxTime {
			break
		}
		s.now = item.Time
		if ev, ok := item.Payload.(refArrival); ok {
			s.onArrival(ev.t)
			continue
		}
		s.handle(item.Payload)
	}
	return s.result()
}

// orderCase returns a builder of one seeded configuration, fresh on
// every call (networks, RR and the interrupt counter keep state). Rates
// are powers of two, sizes, link costs and scheduler costs whole or
// half numbers, so completions, assignments and arrivals often fall on
// the same instant. Arrivals come unsorted with ties, sorted, all at
// zero, or spread; some runs stop at MaxTime, some by Interrupt, and
// some lose a processor for good with reissue recovery on.
func orderCase(seed uint64) (string, func() Config) {
	r := rng.New(seed)
	m := 1 + r.Intn(6)
	n := 20 + r.Intn(180)
	rates := make([]units.Rate, m)
	for j := range rates {
		rates[j] = units.Rate(uint(1) << r.Intn(4))
	}
	tasks := make([]task.Task, n)
	arrivals := r.Intn(4)
	for i := range tasks {
		tasks[i] = task.Task{ID: task.ID(i), Size: units.MFlops(1 + r.Intn(16))}
		switch arrivals {
		case 0: // unsorted, many ties
			tasks[i].Arrival = units.Seconds(r.Intn(2*n/m+1)) / 2
		case 1: // spread, unsorted
			tasks[i].Arrival = units.Seconds(r.Uniform(0, float64(n)))
		case 2: // sorted with ties
			if i > 0 {
				tasks[i].Arrival = tasks[i-1].Arrival + units.Seconds(r.Intn(3))/2
			}
		}
	}
	comm := units.Seconds(r.Intn(3)) / 2
	schedKind := r.Intn(7)
	batch := 1 + r.Intn(40)
	cut := r.Intn(4)
	limit := units.Seconds(1 + r.Intn(n/2))
	polls := 1 + r.Intn(3*n)
	name := fmt.Sprintf("seed%d/m%d/n%d/arrivals%d/sched%d/cut%d", seed, m, n, arrivals, schedKind, cut)

	return name, func() Config {
		clu := cluster.New(rates)
		cfg := Config{Cluster: clu, Net: fixedNet(m, comm), Tasks: tasks}
		switch schedKind {
		case 0:
			cfg.Scheduler = sched.MM{}
		case 1:
			cfg.Scheduler = sched.MX{}
		case 2:
			cfg.Scheduler = sched.Sufferage{}
		case 3:
			cfg.Scheduler = sched.EF{}
		case 4:
			cfg.Scheduler = &sched.RR{}
		case 5:
			cfg.Scheduler = sched.MM{}
			cfg.BatchSizer = fixedSizer{size: batch}
		default:
			cfg.Scheduler = slowScheduler{cost: units.Seconds(1+batch%3) / 2}
			cfg.BatchSizer = fixedSizer{size: batch}
		}
		switch cut {
		case 1:
			cfg.MaxTime = limit
		case 2:
			left := polls
			cfg.Interrupt = func() bool { left--; return left < 0 }
		case 3:
			cfg.Cluster = clu.WithAvailability(func(j int) cluster.AvailabilityModel {
				if j == 0 {
					return cluster.OffAfter{Cutoff: limit}
				}
				return cluster.Full{}
			})
			cfg.ReissueTimeout = 3
		}
		return cfg
	}
}

// recordRun runs cfg through run with a trace and a timeline attached.
func recordRun(run func(Config) Result, cfg Config) (Result, []TraceEvent, *Timeline) {
	var trace []TraceEvent
	cfg.Trace = func(ev TraceEvent) { trace = append(trace, ev) }
	cfg.Timeline = &Timeline{}
	return run(cfg), trace, cfg.Timeline
}

// TestArrivalCursorMatchesQueuedArrivals runs each case through Run and
// through runReference: the trace, the timeline and the result must be
// identical, event for event.
func TestArrivalCursorMatchesQueuedArrivals(t *testing.T) {
	tied := map[TraceKind]int{}
	for seed := uint64(0); seed < 100; seed++ {
		name, build := orderCase(seed)
		want, wantTrace, wantTL := recordRun(runReference, build())
		got, gotTrace, gotTL := recordRun(Run, build())
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			for i := range min(len(gotTrace), len(wantTrace)) {
				if gotTrace[i] != wantTrace[i] {
					t.Fatalf("%s: trace event %d = %+v, want %+v", name, i, gotTrace[i], wantTrace[i])
				}
			}
			t.Fatalf("%s: %d trace events, want %d", name, len(gotTrace), len(wantTrace))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result %+v, want %+v", name, got, want)
		}
		if !reflect.DeepEqual(gotTL, wantTL) {
			t.Fatalf("%s: timelines differ", name)
		}
		for kind, n := range arrivalTies(wantTrace) {
			tied[kind] += n
		}
	}
	// The cases are only worth their name if arrivals do meet
	// completions and assignments at one instant.
	for _, kind := range []TraceKind{TraceComplete, TraceAssign} {
		if tied[kind] < 50 {
			t.Errorf("only %d arrivals fall at the instant of a %s", tied[kind], kind)
		}
	}
}

// arrivalTies counts, per kind of other traced event, the arrivals
// traced at an instant where that kind of event is traced too.
func arrivalTies(trace []TraceEvent) map[TraceKind]int {
	at := map[units.Seconds]map[TraceKind]bool{}
	for _, ev := range trace {
		if ev.Kind != TraceArrival {
			if at[ev.Time] == nil {
				at[ev.Time] = map[TraceKind]bool{}
			}
			at[ev.Time][ev.Kind] = true
		}
	}
	n := map[TraceKind]int{}
	for _, ev := range trace {
		if ev.Kind == TraceArrival {
			for kind := range at[ev.Time] {
				n[kind]++
			}
		}
	}
	return n
}
