package ga

import (
	"slices"
	"testing"

	"pnsched/internal/rng"
)

// sortednessEvaluator rewards permutations close to identity order: the
// fitness is the count of adjacent in-order pairs plus one. A GA that
// works must drive a shuffled permutation toward sortedness.
type sortednessEvaluator struct{}

func (sortednessEvaluator) Fitness(c Chromosome) float64 {
	score := 1.0
	for i := 1; i < len(c); i++ {
		if c[i] > c[i-1] {
			score++
		}
	}
	return score
}

func randomPopulation(n, size int, r *rng.RNG) []Chromosome {
	pop := make([]Chromosome, size)
	for i := range pop {
		pop[i] = Chromosome(perm(r, n))
	}
	return pop
}

func TestRunImprovesFitness(t *testing.T) {
	r := rng.New(1)
	pop := randomPopulation(20, 20, r)
	eval := sortednessEvaluator{}
	var initBest float64
	for _, c := range pop {
		if f := eval.Fitness(c); f > initBest {
			initBest = f
		}
	}
	res := Run(Config{MaxGenerations: 300}, eval, pop, r)
	if res.BestFitness <= initBest {
		t.Errorf("GA did not improve: initial best %v, final %v", initBest, res.BestFitness)
	}
	if err := res.Best.ValidatePermutation(); err != nil {
		t.Errorf("best individual invalid: %v", err)
	}
	if res.Reason != StopMaxGenerations {
		t.Errorf("reason = %v", res.Reason)
	}
	if res.Generations != 300 {
		t.Errorf("generations = %d", res.Generations)
	}
	if res.Evaluations == 0 {
		t.Error("no evaluations recorded")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		r := rng.New(42)
		pop := randomPopulation(15, 10, r)
		return Run(Config{MaxGenerations: 100, PopulationSize: 10}, sortednessEvaluator{}, pop, r)
	}
	a, b := run(), run()
	if a.BestFitness != b.BestFitness || !slices.Equal(a.Best, b.Best) {
		t.Errorf("runs with identical seeds diverged: %v vs %v", a.BestFitness, b.BestFitness)
	}
}

func TestElitismMonotoneBest(t *testing.T) {
	r := rng.New(7)
	pop := randomPopulation(20, 20, r)
	var history []float64
	Run(Config{
		MaxGenerations: 200,
		Elitism:        true,
		OnGeneration: func(gen int, best Chromosome, bestFitness float64) {
			history = append(history, bestFitness)
		},
	}, sortednessEvaluator{}, pop, r)
	if len(history) != 201 { // generation 0 plus 200 evolved
		t.Fatalf("history length = %d, want 201", len(history))
	}
	for i := 1; i < len(history); i++ {
		if history[i] < history[i-1] {
			t.Fatalf("best fitness regressed at generation %d: %v < %v", i, history[i], history[i-1])
		}
	}
}

func TestStopCallback(t *testing.T) {
	r := rng.New(8)
	pop := randomPopulation(10, 10, r)
	res := Run(Config{
		MaxGenerations: 1000,
		Stop:           func(gen int, _ float64) bool { return gen > 5 },
	}, sortednessEvaluator{}, pop, r)
	if res.Reason != StopCallback {
		t.Errorf("reason = %v, want callback", res.Reason)
	}
	if res.Generations != 5 {
		t.Errorf("generations = %d, want 5", res.Generations)
	}
}

func TestPopulationPaddingAndTrimming(t *testing.T) {
	r := rng.New(10)
	// 3 seeds, population of 12: engine must pad.
	pop := randomPopulation(8, 3, r)
	res := Run(Config{PopulationSize: 12, MaxGenerations: 10}, sortednessEvaluator{}, pop, r)
	if err := res.Best.ValidatePermutation(); err != nil {
		t.Errorf("padded run produced invalid best: %v", err)
	}
	// 30 seeds, population of 5: engine must trim.
	pop = randomPopulation(8, 30, r)
	res = Run(Config{PopulationSize: 5, MaxGenerations: 10}, sortednessEvaluator{}, pop, r)
	if err := res.Best.ValidatePermutation(); err != nil {
		t.Errorf("trimmed run produced invalid best: %v", err)
	}
}

func TestPostGenerationHook(t *testing.T) {
	r := rng.New(11)
	pop := randomPopulation(10, 10, r)
	calls := 0
	Run(Config{
		MaxGenerations: 50,
		PopulationSize: 10,
		PostGeneration: func(pop []Chromosome, r *rng.RNG) {
			calls++
			if len(pop) != 10 {
				t.Fatalf("hook saw %d individuals", len(pop))
			}
		},
	}, sortednessEvaluator{}, pop, r)
	if calls != 50 {
		t.Errorf("PostGeneration called %d times, want 50", calls)
	}
}

func TestRunDoesNotMutateSeeds(t *testing.T) {
	r := rng.New(13)
	pop := randomPopulation(10, 5, r)
	copies := make([]Chromosome, len(pop))
	for i, c := range pop {
		copies[i] = c.Clone()
	}
	Run(Config{MaxGenerations: 20, PopulationSize: 5}, sortednessEvaluator{}, pop, r)
	for i := range pop {
		if !slices.Equal(pop[i], copies[i]) {
			t.Errorf("seed %d was mutated by Run", i)
		}
	}
}

func TestEmptyPopulationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty population did not panic")
		}
	}()
	Run(Config{}, sortednessEvaluator{}, nil, rng.New(1))
}

func TestAllChromosomesRemainPermutations(t *testing.T) {
	r := rng.New(14)
	pop := randomPopulation(12, 20, r)
	ref := pop[0].Clone()
	Run(Config{
		MaxGenerations: 100,
		PostGeneration: func(pop []Chromosome, _ *rng.RNG) {
			for _, c := range pop {
				if !c.IsPermutationOf(ref) {
					t.Fatalf("population corrupted: %v not a permutation of %v", c, ref)
				}
			}
		},
	}, sortednessEvaluator{}, pop, r)
}

func TestStopReasonString(t *testing.T) {
	if StopMaxGenerations.String() != "max-generations" ||
		StopCallback.String() != "callback" {
		t.Error("StopReason strings wrong")
	}
	if StopReason(99).String() == "" {
		t.Error("unknown reason must still stringify")
	}
}
