package core

import (
	"slices"
	"testing"

	"pnsched/internal/rng"
	"pnsched/internal/task"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

func benchProblem(n, m int, seed uint64) *Problem {
	r := rng.New(seed)
	batch := workload.Generate(workload.Spec{
		N:     n,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, r)
	rates := make([]units.Rate, m)
	for j := range rates {
		rates[j] = units.Rate(r.Uniform(50, 500))
	}
	comm := make([]units.Seconds, m)
	for j := range comm {
		comm[j] = units.Seconds(r.Uniform(0.1, 2))
	}
	return BuildProblem(batch, rates, nil, comm, true)
}

func TestListPopulationValidity(t *testing.T) {
	p := benchProblem(50, 8, 1)
	pop := ListPopulation(p, 20, rng.New(2))
	if len(pop) != 20 {
		t.Fatalf("population size = %d", len(pop))
	}
	want := ChromosomeLen(50, 8)
	ref := pop[0]
	for i, c := range pop {
		if len(c) != want {
			t.Errorf("individual %d length %d, want %d", i, len(c), want)
		}
		if err := c.ValidatePermutation(); err != nil {
			t.Errorf("individual %d: %v", i, err)
		}
		if !c.IsPermutationOf(ref) {
			t.Errorf("individual %d uses different symbols", i)
		}
		if got := numTasks(c); got != 50 {
			t.Errorf("individual %d has %d tasks", i, got)
		}
	}
}

func TestListPopulationFirstIndividualIsGreedy(t *testing.T) {
	// Individual 0 assigns everything earliest-finish: its fitness must
	// beat the average of a fully random population.
	p := benchProblem(100, 10, 3)
	pop := ListPopulation(p, 20, rng.New(4))
	greedy := p.Fitness(pop[0])

	random := RandomPopulation(p, 20, rng.New(5))
	var sum float64
	for _, c := range random {
		sum += p.Fitness(c)
	}
	avg := sum / float64(len(random))
	if greedy <= avg {
		t.Errorf("greedy individual fitness %v not above random average %v", greedy, avg)
	}
}

func TestListPopulationDiverse(t *testing.T) {
	p := benchProblem(50, 8, 6)
	pop := ListPopulation(p, 20, rng.New(7))
	distinct := 0
	for i := 1; i < len(pop); i++ {
		if !slices.Equal(pop[i], pop[0]) {
			distinct++
		}
	}
	if distinct < 15 {
		t.Errorf("population not diverse: only %d differ from individual 0", distinct)
	}
}

func TestListPopulationAvoidsStoppedProcessors(t *testing.T) {
	// Greedy portion must route around a zero-rate processor.
	batch := mkBatch(10, 20, 30, 40, 50)
	p := BuildProblem(batch, []units.Rate{0, 10, 10}, nil, nil, false)
	pop := ListPopulation(p, 1, rng.New(8)) // single, pure-greedy individual
	queues := Decode(pop[0], 3)
	if len(queues[0]) != 0 {
		t.Errorf("greedy individual assigned %d tasks to a stopped processor", len(queues[0]))
	}
}

func TestRandomPopulationValidity(t *testing.T) {
	p := benchProblem(30, 5, 9)
	pop := RandomPopulation(p, 20, rng.New(10))
	ref := pop[0]
	for i, c := range pop {
		if err := c.ValidatePermutation(); err != nil {
			t.Errorf("individual %d: %v", i, err)
		}
		if !c.IsPermutationOf(ref) {
			t.Errorf("individual %d symbol set differs", i)
		}
		if numTasks(c) != 30 {
			t.Errorf("individual %d lost tasks", i)
		}
	}
}

func TestPopulationSizeFloor(t *testing.T) {
	p := benchProblem(5, 2, 11)
	if got := len(ListPopulation(p, 0, rng.New(1))); got != 1 {
		t.Errorf("ListPopulation(0) size = %d, want 1", got)
	}
	if got := len(RandomPopulation(p, -3, rng.New(1))); got != 1 {
		t.Errorf("RandomPopulation(-3) size = %d, want 1", got)
	}
}

func TestListPopulationDeterministic(t *testing.T) {
	p := benchProblem(40, 6, 12)
	a := ListPopulation(p, 10, rng.New(13))
	b := ListPopulation(p, 10, rng.New(13))
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("individual %d differs across identical seeds", i)
		}
	}
}

func TestListScheduleUsesCommEstimates(t *testing.T) {
	// Two equal-rate processors, but proc 0's link is expensive. The
	// greedy individual should favour proc 1.
	batch := mkBatch(100, 100, 100, 100)
	p := BuildProblem(batch,
		[]units.Rate{10, 10},
		nil,
		[]units.Seconds{100, 0}, // proc 0: 100s per transfer
		true,
	)
	pop := ListPopulation(p, 1, rng.New(14))
	queues := Decode(pop[0], 2)
	if len(queues[1]) <= len(queues[0]) {
		t.Errorf("greedy ignored comm costs: queues %d vs %d tasks", len(queues[0]), len(queues[1]))
	}
}

func TestRandomPopulationSingleProc(t *testing.T) {
	batch := mkBatch(10, 20)
	p := BuildProblem(batch, []units.Rate{5}, nil, nil, false)
	pop := RandomPopulation(p, 3, rng.New(15))
	for _, c := range pop {
		if len(c) != 2 {
			t.Errorf("single-proc chromosome = %v", c)
		}
	}
}

func mkTasksSeq(n int) []task.Task {
	out := make([]task.Task, n)
	for i := range out {
		out[i] = task.Task{ID: task.ID(i), Size: units.MFlops(10 * (i + 1))}
	}
	return out
}

func TestListPopulationEmptyBatch(t *testing.T) {
	p := BuildProblem(nil, []units.Rate{1, 1}, nil, nil, false)
	pop := ListPopulation(p, 3, rng.New(16))
	for _, c := range pop {
		if numTasks(c) != 0 {
			t.Errorf("empty batch produced tasks: %v", c)
		}
		if len(c) != 1 { // just the delimiter
			t.Errorf("chromosome = %v", c)
		}
	}
	_ = mkTasksSeq // referenced by other tests
}
