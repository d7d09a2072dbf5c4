package ga

import (
	"slices"
	"testing"

	"pnsched/internal/rng"
)

// TestEngineStepMatchesRun drives an Engine by hand and checks it
// reproduces Run exactly — same best, same fitness, same counters —
// since island evolution depends on the step-wise API being a faithful
// decomposition of the batch one.
func TestEngineStepMatchesRun(t *testing.T) {
	cfg := Config{MaxGenerations: 120, PopulationSize: 12}
	ran := func() Result {
		r := rng.New(21)
		return Run(cfg, sortednessEvaluator{}, randomPopulation(14, 12, r), r)
	}
	stepped := func() Result {
		r := rng.New(21)
		e := NewEngine(cfg, sortednessEvaluator{}, randomPopulation(14, 12, r), r)
		for e.Step() {
		}
		return e.Result()
	}
	a, b := ran(), stepped()
	if !slices.Equal(a.Best, b.Best) || a.BestFitness != b.BestFitness ||
		a.Generations != b.Generations || a.Evaluations != b.Evaluations ||
		a.Reason != b.Reason {
		t.Errorf("stepped engine diverged from Run: %+v vs %+v", a, b)
	}
}

func TestEngineStepAfterDoneIsNoOp(t *testing.T) {
	r := rng.New(22)
	e := NewEngine(Config{MaxGenerations: 3}, sortednessEvaluator{}, randomPopulation(8, 8, r), r)
	for e.Step() {
	}
	if !e.Done() {
		t.Fatal("engine not done after Step returned false")
	}
	res := e.Result()
	if e.Step() {
		t.Error("Step on a done engine returned true")
	}
	if after := e.Result(); after.Generations != res.Generations || after.Evaluations != res.Evaluations {
		t.Errorf("Step on a done engine changed the result: %+v vs %+v", res, after)
	}
}

func TestEngineElitesOrderedByFitness(t *testing.T) {
	r := rng.New(23)
	e := NewEngine(Config{MaxGenerations: 10, PopulationSize: 10}, sortednessEvaluator{}, randomPopulation(10, 10, r), r)
	eval := sortednessEvaluator{}
	elites := e.Elites(4)
	if len(elites) != 4 {
		t.Fatalf("Elites(4) returned %d individuals", len(elites))
	}
	for i := 1; i < len(elites); i++ {
		if eval.Fitness(elites[i]) > eval.Fitness(elites[i-1]) {
			t.Errorf("elites out of order at %d", i)
		}
	}
	best, bestFit := e.Best()
	if !slices.Equal(elites[0], best) && eval.Fitness(elites[0]) != bestFit {
		t.Error("top elite is not as fit as the best individual")
	}
	if got := e.Elites(100); len(got) != 10 {
		t.Errorf("Elites(100) = %d individuals, want clamped to population size 10", len(got))
	}
	if got := e.Elites(0); got != nil {
		t.Errorf("Elites(0) = %v, want nil", got)
	}
}

// TestEngineInjectReplacesWorst injects a perfect individual and checks
// it displaces the weakest slot and raises the best-so-far.
func TestEngineInjectReplacesWorst(t *testing.T) {
	r := rng.New(24)
	e := NewEngine(Config{MaxGenerations: 10}, sortednessEvaluator{}, randomPopulation(10, 10, r), r)
	perfect := make(Chromosome, 10)
	for i := range perfect {
		perfect[i] = i // identity order: maximal sortedness fitness
	}
	want := sortednessEvaluator{}.Fitness(perfect)
	evalsBefore := e.evals
	e.Inject([]Chromosome{perfect})
	if _, fit := e.Best(); fit != want {
		t.Errorf("best fitness after injecting perfect individual = %v, want %v", fit, want)
	}
	if e.evals != evalsBefore+1 {
		t.Errorf("Inject performed %d evaluations, want 1", e.evals-evalsBefore)
	}
	// The migrant must be owned by the engine, not aliased.
	perfect[0], perfect[1] = perfect[1], perfect[0]
	if _, fit := e.Best(); fit != want {
		t.Error("engine best aliases the injected migrant")
	}
}

func TestEngineMaxGenerationsOneRunsOneGeneration(t *testing.T) {
	r := rng.New(26)
	e := NewEngine(Config{MaxGenerations: 1, PopulationSize: 6}, sortednessEvaluator{}, randomPopulation(8, 6, r), r)
	for e.Step() {
	}
	if res := e.Result(); res.Generations != 1 || res.Reason != StopMaxGenerations {
		t.Errorf("result = %+v, want 1 generation / max-generations", res)
	}
}

func TestEngineInjectOnDoneEngineIsNoOp(t *testing.T) {
	r := rng.New(25)
	e := NewEngine(Config{MaxGenerations: 2}, sortednessEvaluator{}, randomPopulation(6, 6, r), r)
	for e.Step() {
	}
	evals := e.evals
	e.Inject(randomPopulation(6, 2, r))
	if e.evals != evals {
		t.Error("Inject on a done engine evaluated migrants")
	}
}
