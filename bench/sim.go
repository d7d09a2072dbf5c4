package main

import (
	"context"
	"fmt"
	"time"

	"pnsched"
	"pnsched/internal/sim"
)

// timedPrefix names the registry entries that wrap a built-in scheduler
// with the timing wrapper the traced sim-* runs use: the simulator's
// BatchDecision carries no wall time, so the span is stamped around
// ScheduleBatch from outside.
const timedPrefix = "BENCH-"

// simRecorder receives the wrapper's batch spans; set for the traced
// phase only. The registry's factories take no arguments of ours, hence
// the package variable (sim-* runs are single-goroutine).
var simRecorder *recorder

func init() {
	for _, name := range []string{"PN", "MM"} {
		pnsched.Register(timedPrefix+name, func(spec pnsched.Spec, r *pnsched.RNG) (pnsched.Scheduler, error) {
			spec.Name = name
			inner, err := pnsched.New(spec.With(pnsched.WithRNG(r)))
			if err != nil {
				return nil, err
			}
			t := timedBatch{BatchScheduler: inner.(pnsched.BatchScheduler)}
			if sizer, ok := inner.(pnsched.BatchSizer); ok {
				return timedSizedBatch{timedBatch: t, sizer: sizer}, nil
			}
			return t, nil
		})
	}
}

type timedBatch struct{ pnsched.BatchScheduler }

func (t timedBatch) ScheduleBatch(batch []pnsched.Task, s pnsched.State) (pnsched.Assignment, pnsched.Seconds) {
	start := simRecorder.now()
	asg, cost := t.BatchScheduler.ScheduleBatch(batch, s)
	simRecorder.batch(start, simRecorder.now(), len(batch))
	return asg, cost
}

// timedSizedBatch keeps the wrapped scheduler's own batch sizing (PN's
// §3.7 rule) visible to the runtime.
type timedSizedBatch struct {
	timedBatch
	sizer pnsched.BatchSizer
}

func (t timedSizedBatch) NextBatchSize(queued int, s pnsched.State) int {
	return t.sizer.NextBatchSize(queued, s)
}

// simSystem drives pnsched.Run over the pre-generated systems, one run
// per op, on the caller's goroutine.
type simSystem struct {
	def  workloadDef
	in   *inputs
	seed uint64
	rec  *recorder // non-nil while the traced phase runs
}

func (s *simSystem) close() error { return nil }

func (s *simSystem) counters() (map[string]float64, error) { return map[string]float64{}, nil }

func (s *simSystem) finish() (map[string]float64, error) { return map[string]float64{}, nil }

func (s *simSystem) op(i int) opResult {
	k := i % len(s.in.sims)
	w := s.in.sims[k]
	spec := s.def.spec(s.seed, k)
	var opts []pnsched.RunOption
	if s.rec != nil {
		spec.Name = timedPrefix + spec.Name
		opts = append(opts, pnsched.Observe(s.rec.observer()))
	}
	r := opResult{index: i, tasks: len(w.Tasks), start: time.Now()}
	res, err := pnsched.Run(context.Background(), spec, w, opts...)
	r.lat = time.Since(r.start)
	switch {
	case err != nil:
		r.err = err
	case res.Completed != len(w.Tasks):
		r.err = fmt.Errorf("run %d completed %d of %d tasks", i, res.Completed, len(w.Tasks))
	default:
		r.quality = float64(res.Makespan) / s.in.ideal[k]
	}
	return r
}

// simEventsPerTask counts the simulator's own events for one run of a
// fresh copy of the first input, so the count repeats exactly for a
// seed. sim.Config.Trace is the only way to see the events and
// pnsched.Run does not expose it, so the config is rebuilt the way Run
// builds it.
func simEventsPerTask(def workloadDef, seed uint64) (float64, error) {
	w, err := simInput(def, seed, 0)
	if err != nil {
		return 0, err
	}
	spec := def.spec(seed, 0)
	sch, err := pnsched.New(spec)
	if err != nil {
		return 0, err
	}
	var events int
	res := sim.Run(sim.Config{
		Cluster: w.Cluster, Net: w.Network, Tasks: w.Tasks,
		Scheduler: sch, BatchSizer: pnsched.SizerFor(sch, spec),
		Trace: func(sim.TraceEvent) { events++ },
	})
	if res.Completed != len(w.Tasks) {
		return 0, fmt.Errorf("event-count run completed %d of %d tasks", res.Completed, len(w.Tasks))
	}
	return float64(events) / float64(len(w.Tasks)), nil
}
