package ga_test

import (
	"fmt"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
)

// Cycle crossover partitions positions into cycles and copies alternate
// cycles from each parent, so every child position carries one of the
// two parent values at that position.
func ExampleCycleCrossover() {
	p1 := ga.Chromosome{1, 2, 3, 4, 5, 6, 7, 8}
	p2 := ga.Chromosome{8, 5, 2, 1, 3, 6, 4, 7}
	c1, c2 := ga.CycleCrossover(p1, p2)
	fmt.Println(c1)
	fmt.Println(c2)
	// Output:
	// [1 5 2 4 3 6 7 8]
	// [8 2 3 1 5 6 4 7]
}

// sortedness scores a permutation by its adjacent in-order pairs, plus
// one so every score is positive.
type sortedness struct{}

func (sortedness) Fitness(c ga.Chromosome) float64 {
	score := 1.0
	for i := 1; i < len(c); i++ {
		if c[i] > c[i-1] {
			score++
		}
	}
	return score
}

// The engine evolves permutations against any Evaluator; here fitness
// counts adjacent in-order pairs, so evolution drives the permutation
// toward sortedness. Elitism guarantees the best individual never
// regresses, and the result is always a valid permutation.
func ExampleRun() {
	r := rng.New(42)
	var eval sortedness
	initial := []ga.Chromosome{{0, 1, 2, 3, 4, 5, 6, 7}}
	r.ShuffleInts(initial[0])
	initialBest := eval.Fitness(initial[0])
	res := ga.Run(ga.Config{PopulationSize: 20, MaxGenerations: 400}, eval, initial, r)
	fmt.Println(res.BestFitness > initialBest, res.Reason, res.Best.ValidatePermutation() == nil)
	// Output: true max-generations true
}
