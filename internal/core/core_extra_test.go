package core

import (
	"testing"
	"testing/quick"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// Fitness depends only on which tasks sit on which queue, not their
// order within a queue (completion time is a per-queue sum). Shuffling
// inside queues must leave fitness unchanged.
func TestFitnessInvariantToWithinQueueOrder(t *testing.T) {
	f := func(seed uint64) bool {
		p := benchProblem(40, 6, seed)
		r := rng.New(seed ^ 0xabc)
		c := ListPopulation(p, 1, r)[0]
		before := p.Fitness(c)

		queues := Decode(c, p.M)
		for j := range queues {
			r.Shuffle(len(queues[j]), func(a, b int) {
				queues[j][a], queues[j][b] = queues[j][b], queues[j][a]
			})
		}
		after := p.Fitness(encode(queues))
		diff := before - after
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Moving any single task between queues of a perfectly balanced
// two-processor schedule cannot improve fitness.
func TestPerfectBalanceIsLocalOptimum(t *testing.T) {
	batch := mkBatch(100, 100, 100, 100)
	p := BuildProblem(batch, []units.Rate{10, 10}, nil, nil, false)
	balanced := encode([][]int{{0, 1}, {2, 3}})
	base := p.Fitness(balanced)
	moves := []ga.Chromosome{
		encode([][]int{{0, 1, 2}, {3}}),
		encode([][]int{{0}, {1, 2, 3}}),
	}
	for _, c := range moves {
		if p.Fitness(c) > base {
			t.Errorf("unbalancing improved fitness: %v > %v", p.Fitness(c), base)
		}
	}
}

func TestEvolveZeroBudgetReturnsQuickly(t *testing.T) {
	p := benchProblem(80, 8, 21)
	r := rng.New(22)
	initial := ListPopulation(p, 20, r)
	st := Evolve(p, DefaultConfig(), initial, 0, r)
	// §3.4: a starving processor stops evolution; the best-so-far
	// schedule is still a complete, valid assignment.
	if st.Result.Generations > 1 {
		t.Errorf("zero budget ran %d generations", st.Result.Generations)
	}
	if numTasks(st.Result.Best) != 80 {
		t.Errorf("zero-budget schedule lost tasks: %d", numTasks(st.Result.Best))
	}
	if err := st.Result.Best.ValidatePermutation(); err != nil {
		t.Error(err)
	}
}

func TestPNScheduleBatchUnderStarvation(t *testing.T) {
	// A starving state (zero budget) must still produce a full
	// assignment, immediately.
	cfg := DefaultConfig()
	pn := NewPN(cfg, rng.New(23))
	batch := mkTasksSeq(30)
	s := &stubState{
		m:         3,
		rates:     []units.Rate{50, 100, 200},
		loads:     []units.MFlops{500, 0, 100}, // proc 1 starving
		firstIdle: 0,
	}
	a, cost := pn.ScheduleBatch(batch, s)
	if a.Tasks() != 30 {
		t.Fatalf("assignment lost tasks: %d", a.Tasks())
	}
	if cost <= 0 {
		t.Errorf("cost = %v", cost)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	pn := NewPN(Config{}, rng.New(24))
	cfg := pn.cfg
	if cfg.Population != DefaultPopulation ||
		cfg.Generations != DefaultGenerations ||
		cfg.InitialBatch != DefaultInitialBatch ||
		cfg.CostPerGene != DefaultCostPerGene {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.Rebalances != 0 {
		t.Error("zero-value Rebalances must stay 0 (pure GA); DefaultConfig sets 1")
	}
	if DefaultConfig().Rebalances != DefaultRebalances {
		t.Error("DefaultConfig missing the paper's single rebalance")
	}
}

func TestDecodeAllTasksOnOneProcessor(t *testing.T) {
	// Extreme layouts: all tasks before the first delimiter / after the
	// last.
	c := ga.Chromosome{0, 1, 2, Delimiter(1), Delimiter(2)}
	q := Decode(c, 3)
	if len(q[0]) != 3 || len(q[1]) != 0 || len(q[2]) != 0 {
		t.Errorf("front-loaded decode = %v", q)
	}
	c = ga.Chromosome{Delimiter(1), Delimiter(2), 0, 1, 2}
	q = Decode(c, 3)
	if len(q[2]) != 3 {
		t.Errorf("back-loaded decode = %v", q)
	}
}

func TestMakespanMatchesCompletionTimes(t *testing.T) {
	f := func(seed uint64) bool {
		p := benchProblem(30, 5, seed)
		c := ListPopulation(p, 1, rng.New(seed))[0]
		times := p.CompletionTimes(c, nil)
		max := times[0]
		for _, ct := range times[1:] {
			if ct > max {
				max = ct
			}
		}
		return p.MakespanInto(c, nil) == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// ψ is a true lower bound on any schedule's predicted makespan when
// communication is free (no schedule can beat simultaneous finishing).
func TestPsiLowerBoundsMakespan(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		batch := mkTasksSeq(int(seed%40) + 5)
		rates := make([]units.Rate, 4)
		for j := range rates {
			rates[j] = units.Rate(r.Uniform(10, 100))
		}
		p := BuildProblem(batch, rates, nil, nil, false)
		c := ListPopulation(p, 1, r)[0]
		return p.MakespanInto(c, nil) >= p.psi-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
