package core

import (
	"math"
	"slices"
	"testing"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

func mkBatch(sizes ...units.MFlops) []task.Task {
	out := make([]task.Task, len(sizes))
	for i, s := range sizes {
		out[i] = task.Task{ID: task.ID(i), Size: s}
	}
	return out
}

func TestPsiHandComputed(t *testing.T) {
	// Two procs at 10 Mflop/s each, batch totalling 100 MFLOPs, prior
	// loads 50 and 0: ψ = (100+50)/20 = 7.5 — the instant both
	// processors could finish simultaneously.
	p := BuildProblem(
		mkBatch(60, 40),
		[]units.Rate{10, 10},
		[]units.MFlops{50, 0},
		nil, false,
	)
	if got := p.psi; got != 7.5 {
		t.Errorf("ψ = %v, want 7.5", got)
	}
}

func TestPsiMatchesPaperFormulaForSingleProcessor(t *testing.T) {
	// For M = 1 our ψ coincides with the paper's Σt/ΣP + Σδ:
	// 100/10 + 50/10 = 15.
	p := BuildProblem(
		mkBatch(100),
		[]units.Rate{10},
		[]units.MFlops{50},
		nil, false,
	)
	if got := p.psi; got != 15 {
		t.Errorf("ψ = %v, want 15", got)
	}
}

func TestPsiExcludesStrandedLoad(t *testing.T) {
	// A stopped processor with stranded load must not make ψ infinite.
	p := BuildProblem(
		mkBatch(100),
		[]units.Rate{10, 0},
		[]units.MFlops{0, 500},
		nil, false,
	)
	if p.psi.IsInf() {
		t.Error("ψ infinite due to stranded load on stopped processor")
	}
}

func TestCompletionTimesHandComputed(t *testing.T) {
	// Batch: task0=100, task1=200, task2=50. Rates 10 and 5.
	// Chromosome [0 1 | 2]: C₀ = (100+200)/10 = 30; C₁ = 50/5 = 10.
	p := BuildProblem(
		mkBatch(100, 200, 50),
		[]units.Rate{10, 5},
		nil, nil, false,
	)
	c := encode([][]int{{0, 1}, {2}})
	times := p.CompletionTimes(c, nil)
	if times[0] != 30 || times[1] != 10 {
		t.Errorf("completion times = %v, want [30 10]", times)
	}
	if got := p.MakespanInto(c, nil); got != 30 {
		t.Errorf("makespan = %v, want 30", got)
	}
}

func TestCompletionTimesWithCommAndLoads(t *testing.T) {
	// Prior load 50 on proc 0 (δ₀ = 5); comm 2s per task on proc 0,
	// 1s on proc 1.
	// Chromosome [0 | 1 2]: C₀ = 5 + 100/10 + 1·2 = 17;
	// C₁ = 0 + (200+50)/5 + 2·1 = 52.
	p := BuildProblem(
		mkBatch(100, 200, 50),
		[]units.Rate{10, 5},
		[]units.MFlops{50, 0},
		[]units.Seconds{2, 1},
		true,
	)
	c := encode([][]int{{0}, {1, 2}})
	times := p.CompletionTimes(c, nil)
	if times[0] != 17 || times[1] != 52 {
		t.Errorf("completion times = %v, want [17 52]", times)
	}
}

func TestCommExcludedWhenDisabled(t *testing.T) {
	p := BuildProblem(
		mkBatch(100),
		[]units.Rate{10},
		nil,
		[]units.Seconds{5},
		false, // ZO mode: comm not considered
	)
	c := encode([][]int{{0}})
	if got := p.CompletionTimes(c, nil)[0]; got != 10 {
		t.Errorf("completion = %v, want 10 (comm excluded)", got)
	}
}

func TestEmptyQueueGetsDeltaOnly(t *testing.T) {
	p := BuildProblem(
		mkBatch(100),
		[]units.Rate{10, 10},
		[]units.MFlops{0, 30},
		nil, false,
	)
	c := encode([][]int{{0}, {}})
	times := p.CompletionTimes(c, nil)
	if times[1] != 3 {
		t.Errorf("idle queue completion = %v, want δ = 3", times[1])
	}
}

func TestRelativeErrorPerfectBalanceIsZero(t *testing.T) {
	// Two equal procs, two equal tasks, no comm: assigning one each
	// gives C₀ = C₁ = ψ → E = 0, F = 1.
	p := BuildProblem(
		mkBatch(100, 100),
		[]units.Rate{10, 10},
		nil, nil, false,
	)
	c := encode([][]int{{0}, {1}})
	if e := p.RelativeError(c); e > 1e-9 {
		t.Errorf("relative error of perfect schedule = %v, want 0", e)
	}
	if f := p.Fitness(c); math.Abs(f-1) > 1e-9 {
		t.Errorf("fitness of perfect schedule = %v, want 1", f)
	}
}

func TestFitnessOrdersSchedulesByBalance(t *testing.T) {
	p := BuildProblem(
		mkBatch(100, 100),
		[]units.Rate{10, 10},
		nil, nil, false,
	)
	balanced := encode([][]int{{0}, {1}})
	lopsided := encode([][]int{{0, 1}, {}})
	if p.Fitness(balanced) <= p.Fitness(lopsided) {
		t.Errorf("balanced fitness %v not above lopsided %v",
			p.Fitness(balanced), p.Fitness(lopsided))
	}
	if p.MakespanInto(balanced, nil) >= p.MakespanInto(lopsided, nil) {
		t.Errorf("balanced makespan %v not below lopsided %v",
			p.MakespanInto(balanced, nil), p.MakespanInto(lopsided, nil))
	}
}

func TestFitnessHeterogeneousRates(t *testing.T) {
	// Proc 0 is 9× faster; the schedule loading proc 0 harder must be
	// fitter than the uniform split.
	p := BuildProblem(
		mkBatch(100, 100, 100, 100, 100, 100, 100, 100, 100, 100),
		[]units.Rate{90, 10},
		nil, nil, false,
	)
	proportional := encode([][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8}, {9}})
	uniform := encode([][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
	if p.Fitness(proportional) <= p.Fitness(uniform) {
		t.Errorf("rate-proportional split %v not fitter than uniform %v",
			p.Fitness(proportional), p.Fitness(uniform))
	}
}

func TestFitnessZeroOnImpossibleSchedule(t *testing.T) {
	// Tasks on a stopped processor → infinite completion → fitness 0.
	p := BuildProblem(
		mkBatch(100),
		[]units.Rate{0, 10},
		nil, nil, false,
	)
	impossible := encode([][]int{{0}, {}})
	if f := p.Fitness(impossible); f != 0 {
		t.Errorf("fitness of impossible schedule = %v, want 0", f)
	}
	possible := encode([][]int{{}, {0}})
	if f := p.Fitness(possible); f <= 0 {
		t.Errorf("fitness of feasible schedule = %v, want > 0", f)
	}
}

func TestFitnessBounds(t *testing.T) {
	p := BuildProblem(
		mkBatch(100, 250, 30, 470, 88),
		[]units.Rate{13, 97},
		[]units.MFlops{500, 0},
		[]units.Seconds{0.5, 2},
		true,
	)
	chromos := []ga.Chromosome{
		encode([][]int{{0, 1, 2, 3, 4}, {}}),
		encode([][]int{{}, {0, 1, 2, 3, 4}}),
		encode([][]int{{0, 2}, {1, 3, 4}}),
	}
	for _, c := range chromos {
		f := p.Fitness(c)
		if f <= 0 || f > 1 {
			t.Errorf("fitness %v outside (0,1] for %v", f, c)
		}
	}
}

func TestEvaluatorMatchesFitness(t *testing.T) {
	p := BuildProblem(
		mkBatch(10, 20, 30, 40),
		[]units.Rate{5, 15, 25},
		[]units.MFlops{100, 0, 50},
		[]units.Seconds{1, 2, 3},
		true,
	)
	eval := newCountingEvaluator(p)
	chromos := []ga.Chromosome{
		encode([][]int{{0, 1}, {2}, {3}}),
		encode([][]int{{}, {0, 1, 2, 3}, {}}),
	}
	for _, c := range chromos {
		if got, want := eval.Fitness(c), p.Fitness(c); math.Abs(got-want) > 1e-15 {
			t.Errorf("Evaluator %v != Fitness %v", got, want)
		}
	}
}

func TestAssignmentDecodesToTasks(t *testing.T) {
	batch := mkBatch(10, 20, 30)
	p := BuildProblem(batch, []units.Rate{1, 1}, nil, nil, false)
	c := encode([][]int{{2, 0}, {1}})
	a := p.Assignment(c)
	if len(a[0]) != 2 || a[0][0].ID != 2 || a[0][1].ID != 0 {
		t.Errorf("assignment proc 0 = %v", a[0])
	}
	if len(a[1]) != 1 || a[1][0].Size != 20 {
		t.Errorf("assignment proc 1 = %v", a[1])
	}
	if a.Tasks() != 3 {
		t.Errorf("assignment task count = %d", a.Tasks())
	}
}

// TestTaskIDsDoNotReachTheGA: a chromosome names a task by its
// position in the batch, so one batch's sizes under IDs 0…n−1, sparse
// IDs and shuffled IDs seed the same population and schedule alike.
func TestTaskIDsDoNotReachTheGA(t *testing.T) {
	const n = 40
	r := rng.New(3)
	sizes := make([]units.MFlops, n)
	perm := make([]int, n)
	for i := range sizes {
		sizes[i] = units.MFlops(r.Uniform(10, 1000))
		perm[i] = i
	}
	r.ShuffleInts(perm)
	schemes := []struct {
		name string
		id   func(i int) task.ID
	}{
		{"dense", func(i int) task.ID { return task.ID(i) }},
		{"sparse", func(i int) task.ID { return task.ID(i * 100003) }},
		{"shuffled", func(i int) task.ID { return task.ID(perm[i]) }},
	}
	s := &stubState{
		m:         3,
		rates:     []units.Rate{20, 45, 90},
		loads:     []units.MFlops{0, 300, 0},
		comm:      []units.Seconds{0.5, 1, 2},
		firstIdle: units.Inf(),
	}
	cfg := DefaultConfig()
	cfg.Generations = 60

	var wantPop []ga.Chromosome
	var want sched.Assignment
	var wantCost units.Seconds
	for _, sc := range schemes {
		batch := make([]task.Task, n)
		for i := range batch {
			batch[i] = task.Task{ID: sc.id(i), Size: sizes[i]}
		}
		pop := ListPopulation(NewProblem(batch, s, true), 8, rng.New(5))
		a, cost := NewPN(cfg, rng.New(11)).ScheduleBatch(batch, s)
		if wantPop == nil {
			wantPop, want, wantCost = pop, a, cost
			continue
		}
		for k := range pop {
			if !slices.Equal(pop[k], wantPop[k]) {
				t.Errorf("%s ids: chromosome %d is %v, want %v", sc.name, k, pop[k], wantPop[k])
			}
		}
		if cost != wantCost {
			t.Errorf("%s ids: modelled cost %v, want %v", sc.name, cost, wantCost)
		}
		for j := range want {
			if len(a[j]) != len(want[j]) {
				t.Fatalf("%s ids: queue %d holds %d tasks, want %d", sc.name, j, len(a[j]), len(want[j]))
			}
			for k, tk := range want[j] {
				// Under the dense scheme a task's ID is its position.
				if i := int(tk.ID); a[j][k] != batch[i] {
					t.Errorf("%s ids: queue %d task %d is %v, want %v", sc.name, j, k, a[j][k], batch[i])
				}
			}
		}
	}
}

func TestCompletionTimesScratchReuse(t *testing.T) {
	p := BuildProblem(mkBatch(100, 200), []units.Rate{10, 10}, nil, nil, false)
	c := encode([][]int{{0}, {1}})
	scratch := make([]units.Seconds, 2)
	out := p.CompletionTimes(c, scratch)
	if &out[0] != &scratch[0] {
		t.Error("scratch buffer not reused")
	}
}
