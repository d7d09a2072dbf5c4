package core_test

import (
	"fmt"

	"pnsched/internal/core"
	"pnsched/internal/ga"
	"pnsched/internal/rng"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// A schedule is a permutation of task ids partitioned by delimiter
// symbols into per-processor queues (§3.1).
func ExampleDecode() {
	c := ga.Chromosome{3, 1, core.Delimiter(1), core.Delimiter(2), 0, 2}
	fmt.Println(core.Decode(c, 3))
	// Output:
	// [[3 1] [] [0 2]]
}

// Evolve runs the §3 genetic algorithm over a snapshot of the system
// and returns the best schedule found.
func ExampleEvolve() {
	batch := []task.Task{
		{ID: 0, Size: 100},
		{ID: 1, Size: 100},
		{ID: 2, Size: 100},
		{ID: 3, Size: 100},
	}
	// Two equal processors and equal tasks: the optimum splits 2/2 and
	// the GA finds it.
	p := core.BuildProblem(batch, []units.Rate{10, 10}, nil, nil, false)
	r := rng.New(1)
	cfg := core.DefaultConfig()
	cfg.Generations = 100
	st := core.Evolve(p, cfg, core.ListPopulation(p, cfg.Population, r), units.Inf(), r)
	fmt.Printf("makespan %v (relative error %v)\n", st.BestMakespan, p.RelativeError(st.Result.Best))
	// Output: makespan 20.000s (relative error 0)
}
