package core

import (
	"context"
	"slices"
	"testing"

	"pnsched/internal/cluster"
	"pnsched/internal/ga"
	"pnsched/internal/network"
	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/sim"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

func TestEvolveIslandImprovesOverInitialPopulation(t *testing.T) {
	p := benchProblem(100, 10, 31)
	r := rng.New(32)
	var initBest units.Seconds = units.Inf()
	for _, c := range ListPopulation(p, 20, rng.New(32).Stream(1)) {
		if mk := p.MakespanInto(c, nil); mk < initBest {
			initBest = mk
		}
	}
	cfg := DefaultConfig()
	cfg.Generations = 150
	st := EvolveIsland(context.Background(), p, cfg, IslandConfig{Islands: 4}, units.Inf(), r)
	if st.BestMakespan >= initBest {
		t.Errorf("island GA did not improve makespan: %v → %v", initBest, st.BestMakespan)
	}
	if err := st.Result.Best.ValidatePermutation(); err != nil {
		t.Errorf("best individual invalid: %v", err)
	}
	if st.ModelledCost <= 0 {
		t.Errorf("modelled cost = %v", st.ModelledCost)
	}
	if st.Evals < st.Result.Evaluations {
		t.Errorf("Evals %d below engine evaluations %d", st.Evals, st.Result.Evaluations)
	}
	if st.Result.Reason != ga.StopMaxGenerations {
		t.Errorf("reason = %v", st.Result.Reason)
	}
}

// TestEvolveIslandDeterministicPerN: the scheduler-facing determinism
// contract — same seed and island count give byte-identical best
// schedules.
func TestEvolveIslandDeterministicPerN(t *testing.T) {
	run := func() EvolveStats {
		p := benchProblem(80, 8, 33)
		cfg := DefaultConfig()
		cfg.Generations = 120
		return EvolveIsland(context.Background(), p, cfg, IslandConfig{Islands: 4}, units.Inf(), rng.New(34))
	}
	a, b := run(), run()
	if !slices.Equal(a.Result.Best, b.Result.Best) {
		t.Errorf("best schedules diverged across identically seeded runs")
	}
	if a.BestMakespan != b.BestMakespan || a.Evals != b.Evals || a.ModelledCost != b.ModelledCost {
		t.Errorf("stats diverged: %+v vs %+v", a, b)
	}
}

// TestEvolveIslandParallelCostModel: at equal per-island work the
// island run performs more total evaluations than sequential but is
// charged only the busiest island's cost.
func TestEvolveIslandParallelCostModel(t *testing.T) {
	p := benchProblem(60, 6, 35)
	cfg := DefaultConfig()
	cfg.Generations = 80
	seq := Evolve(p, cfg, ListPopulation(p, cfg.Population, rng.New(36)), units.Inf(), rng.New(36))
	isl := EvolveIsland(context.Background(), p, cfg, IslandConfig{Islands: 4}, units.Inf(), rng.New(36))
	if isl.Evals <= 2*seq.Evals {
		t.Errorf("4 islands performed %d evaluations, sequential %d — expected ~4×", isl.Evals, seq.Evals)
	}
	if isl.ModelledCost > 2*seq.ModelledCost {
		t.Errorf("island modelled cost %v not parallel (sequential %v)", isl.ModelledCost, seq.ModelledCost)
	}
}

func TestEvolveIslandRespectsBudget(t *testing.T) {
	p := benchProblem(100, 10, 37)
	cfg := DefaultConfig()
	genes := ChromosomeLen(100, 10)
	perGen := float64(cfg.CostPerGene) * float64(genes) * float64(cfg.Population)
	budget := units.Seconds(3.5 * perGen)
	st := EvolveIsland(context.Background(), p, cfg, IslandConfig{Islands: 3, MigrationInterval: 2},
		budget, rng.New(38))
	if st.Result.Generations >= cfg.Generations {
		t.Errorf("budget ignored: ran %d generations", st.Result.Generations)
	}
	// The billed (busiest-island) cost must fit the budget: the check
	// and the bill read the same per-island gene ledger.
	if st.ModelledCost > budget {
		t.Errorf("modelled cost %v overran the budget %v", st.ModelledCost, budget)
	}
	if st.Result.Reason != ga.StopCallback {
		t.Errorf("stop reason = %v, want callback (processor idle)", st.Result.Reason)
	}
}

// TestEvolveIslandBudgetDeterministicPerN: the budget stop reads each
// island's own gene ledger and never cancels its peers, so even
// budget-terminated runs reproduce byte-identically for a fixed
// (seed, N) — whatever the goroutine interleaving.
func TestEvolveIslandBudgetDeterministicPerN(t *testing.T) {
	run := func() EvolveStats {
		p := benchProblem(80, 8, 51)
		cfg := DefaultConfig()
		genes := ChromosomeLen(80, 8)
		perGen := float64(cfg.CostPerGene) * float64(genes) * float64(cfg.Population)
		return EvolveIsland(context.Background(), p, cfg, IslandConfig{Islands: 4, MigrationInterval: 7},
			units.Seconds(40.5*perGen), rng.New(52))
	}
	a, b := run(), run()
	if !slices.Equal(a.Result.Best, b.Result.Best) || a.BestMakespan != b.BestMakespan ||
		a.Evals != b.Evals || a.GenesEvaluated != b.GenesEvaluated ||
		a.Result.Generations != b.Result.Generations {
		t.Errorf("budget-terminated runs diverged: %v/%d vs %v/%d",
			a.BestMakespan, a.Evals, b.BestMakespan, b.Evals)
	}
	if a.Result.Reason != ga.StopCallback {
		t.Errorf("reason = %v, want callback (processor idle)", a.Result.Reason)
	}
}

// TestEvolveIslandNegativeMigrationInterval must terminate: values
// below 1 fall back to the default interval instead of spinning
// through empty rounds forever.
func TestEvolveIslandNegativeMigrationInterval(t *testing.T) {
	p := benchProblem(40, 4, 53)
	cfg := DefaultConfig()
	cfg.Generations = 30
	st := EvolveIsland(context.Background(), p, cfg, IslandConfig{Islands: 2, MigrationInterval: -5},
		units.Inf(), rng.New(54))
	if st.Result.Generations != 30 {
		t.Errorf("generations = %d, want 30", st.Result.Generations)
	}
}

func TestEvolveIslandContextCancel(t *testing.T) {
	p := benchProblem(100, 10, 39)
	cfg := DefaultConfig()
	cfg.Generations = 1_000_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: must return almost immediately
	st := EvolveIsland(ctx, p, cfg, IslandConfig{Islands: 4}, units.Inf(), rng.New(40))
	// A cancelled context is observed at the first generation's stop
	// poll, so no island evolves at all.
	if st.Result.Generations != 0 {
		t.Errorf("cancelled run still did %d generations", st.Result.Generations)
	}
	if st.Result.Reason != ga.StopCallback {
		t.Errorf("reason = %v, want callback", st.Result.Reason)
	}
}

func TestEvolveIslandHistoryObserver(t *testing.T) {
	p := benchProblem(50, 5, 41)
	cfg := DefaultConfig()
	cfg.Generations = 60
	var history []units.Seconds
	cfg.Observer = observe.Funcs{GenerationBest: func(e observe.GenerationBest) { history = append(history, e.Makespan) }}
	EvolveIsland(context.Background(), p, cfg, IslandConfig{Islands: 2, MigrationInterval: 10}, units.Inf(), rng.New(42))
	if len(history) == 0 {
		t.Fatal("GenerationBest never observed")
	}
	for i := 1; i < len(history); i++ {
		if history[i] > history[i-1] {
			t.Fatalf("best makespan regressed at round %d", i)
		}
	}
}

func TestPNIslandScheduleBatchAssignsAllTasks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Generations = 100
	pn := NewPNIsland(cfg, IslandConfig{Islands: 4}, rng.New(43))
	batch := mkTasksSeq(60)
	s := &stubState{
		m:         4,
		rates:     []units.Rate{50, 100, 200, 400},
		firstIdle: units.Inf(),
	}
	a, cost := pn.ScheduleBatch(batch, s)
	if a.Tasks() != 60 {
		t.Fatalf("assignment has %d tasks, want 60", a.Tasks())
	}
	if cost <= 0 {
		t.Errorf("scheduler cost = %v, want > 0", cost)
	}
	seen := map[int]bool{}
	for _, q := range a {
		for _, tk := range q {
			if seen[int(tk.ID)] {
				t.Fatalf("task %d assigned twice", tk.ID)
			}
			seen[int(tk.ID)] = true
		}
	}
}

// TestPNIslandBatchSizingMatchesPN: both schedulers apply the same
// §3.7 rule.
func TestPNIslandBatchSizingMatchesPN(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialBatch = 200
	pn := NewPN(cfg, rng.New(44))
	pni := NewPNIsland(cfg, IslandConfig{}, rng.New(44))
	for _, idle := range []units.Seconds{units.Inf(), 899, 120, 5000} {
		s := &stubState{m: 2, rates: []units.Rate{10, 10}, firstIdle: idle}
		if a, b := pn.NextBatchSize(1000, s), pni.NextBatchSize(1000, s); a != b {
			t.Errorf("batch sizes diverged at idle=%v: PN %d, PNIsland %d", idle, a, b)
		}
	}
}

// Full-stack: the island scheduler drives a simulated cluster end to
// end, completing every task.
func TestPNIslandEndToEndSimulation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Generations = 150
	tasks := workload.Generate(workload.Spec{
		N:     300,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, rng.New(45))
	res := sim.Run(sim.Config{
		Cluster:   cluster.NewHeterogeneous(10, 50, 500, rng.New(46)),
		Net:       network.New(10, network.Config{MeanCost: 0.5, LinkSpread: 0.3, Jitter: 0.2}, rng.New(47)),
		Tasks:     tasks,
		Scheduler: NewPNIsland(cfg, IslandConfig{Islands: 4}, rng.New(48)),
	})
	if res.Completed != 300 {
		t.Fatalf("PNIsland completed %d of 300 tasks", res.Completed)
	}
	if res.Makespan <= 0 {
		t.Errorf("makespan = %v", res.Makespan)
	}
}
