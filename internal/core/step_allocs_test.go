package core

import (
	"testing"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// TestEngineStepAllocatesNothing pins the ownership contract of
// ga.Engine at paper scale (H=200, M=50, population 20): a generation
// in the shape production runs — incremental evaluator, one §3.5
// rebalance per individual through the slot-aware hook, elitism — costs
// zero allocations under every crossover operator, and so does one
// against the plain evaluator.
func TestEngineStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := benchProblem(evolveBenchTasks, evolveBenchProcs, 4242)
	for _, tc := range []struct {
		name  string
		op    ga.Crossover
		plain bool
	}{
		{"CX", ga.CX, false},
		{"PMX", ga.PMX, false},
		{"OX", ga.OX, false},
		{"plain-evaluator", ga.CX, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(7)
			cfg := ga.Config{PopulationSize: DefaultPopulation, MaxGenerations: 1 << 30, Elitism: true, Crossover: tc.op}
			var eval ga.Evaluator = newCountingEvaluator(p)
			if !tc.plain {
				// The production shape: the lane Evolve and every
				// island run under.
				lcfg := DefaultConfig()
				lcfg.Generations, lcfg.Crossover = cfg.MaxGenerations, tc.op
				var l *lane
				l, cfg = newLane(p, lcfg, units.Inf(), 0)
				eval = l.eval
			}
			e := ga.NewEngine(cfg, eval, ListPopulation(p, cfg.PopulationSize, r), r)
			if n := testing.AllocsPerRun(200, func() { e.Step() }); n != 0 {
				t.Errorf("Engine.Step allocates %v times per generation, want 0", n)
			}
		})
	}
}
