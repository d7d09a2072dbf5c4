package core

import (
	"testing"

	"pnsched/internal/cluster"
	"pnsched/internal/ga"
	"pnsched/internal/network"
	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/sim"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

func TestEvolveImprovesOverInitialPopulation(t *testing.T) {
	p := benchProblem(100, 10, 1)
	r := rng.New(2)
	initial := RandomPopulation(p, 20, r)
	var initBest units.Seconds = units.Inf()
	for _, c := range initial {
		if mk := p.MakespanInto(c, nil); mk < initBest {
			initBest = mk
		}
	}
	cfg := DefaultConfig()
	cfg.Generations = 300
	st := Evolve(p, cfg, initial, units.Inf(), r)
	if st.BestMakespan >= initBest {
		t.Errorf("GA did not improve makespan: %v → %v", initBest, st.BestMakespan)
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
}

// The Fig-3 shape at small scale: more rebalances reach a lower
// makespan in the same number of generations.
func TestRebalancingImprovesConvergence(t *testing.T) {
	run := func(rebalances int) units.Seconds {
		p := benchProblem(100, 10, 3)
		r := rng.New(4)
		initial := RandomPopulation(p, 20, r)
		cfg := DefaultConfig()
		cfg.Generations = 200
		cfg.Rebalances = rebalances
		return Evolve(p, cfg, initial, units.Inf(), r).BestMakespan
	}
	pure := run(0)
	fifty := run(50)
	if fifty >= pure {
		t.Errorf("50 rebalances (%v) not better than pure GA (%v)", fifty, pure)
	}
}

func TestEvolveRespectsBudget(t *testing.T) {
	for _, naive := range []bool{false, true} {
		p := benchProblem(100, 10, 5)
		r := rng.New(6)
		initial := ListPopulation(p, 20, r)
		cfg := DefaultConfig()
		// Budget of a few naive generations' modelled cost.
		genes := ChromosomeLen(100, 10)
		perGen := float64(cfg.CostPerGene) * float64(genes) * float64(cfg.Population)
		budget := units.Seconds(3.5 * perGen)
		evolve, _ := evolvers(naive)
		st := evolve(p, cfg, initial, budget, r)
		if st.Result.Generations >= cfg.Generations {
			t.Errorf("naive=%v: budget ignored: ran %d generations", naive, st.Result.Generations)
		}
		// The reconciliation the budget fix is about: the billed cost
		// reads the same gene ledger the stop check does — rebalancer
		// evaluations included — so the bill fits the budget.
		if st.ModelledCost > budget {
			t.Errorf("naive=%v: modelled cost %v overran the budget %v", naive, st.ModelledCost, budget)
		}
		if st.Result.Reason != ga.StopCallback {
			t.Errorf("naive=%v: stop reason = %v, want callback (processor idle)", naive, st.Result.Reason)
		}
	}
}

// The incremental engine's cheaper generations buy more evolution
// inside the same §3.4 budget — the throughput the incremental
// evaluation engine exists to unlock.
func TestIncrementalBuysMoreGenerationsPerBudget(t *testing.T) {
	gens := func(naive bool) int {
		p := benchProblem(100, 10, 5)
		r := rng.New(6)
		initial := ListPopulation(p, 20, r)
		cfg := DefaultConfig()
		genes := ChromosomeLen(100, 10)
		perGen := float64(cfg.CostPerGene) * float64(genes) * float64(cfg.Population)
		evolve, _ := evolvers(naive)
		return evolve(p, cfg, initial, units.Seconds(20*perGen), r).Result.Generations
	}
	incremental, naive := gens(false), gens(true)
	if incremental <= naive {
		t.Errorf("incremental ran %d generations, naive %d — want more per budget", incremental, naive)
	}
}

func TestEvolveHistoryObserver(t *testing.T) {
	p := benchProblem(50, 5, 9)
	r := rng.New(10)
	initial := ListPopulation(p, 20, r)
	cfg := DefaultConfig()
	cfg.Generations = 50
	var history []units.Seconds
	cfg.Observer = observe.Funcs{GenerationBest: func(e observe.GenerationBest) {
		history = append(history, e.Makespan)
	}}
	Evolve(p, cfg, initial, units.Inf(), r)
	if len(history) != 51 { // generation 0 + 50
		t.Fatalf("history length = %d, want 51", len(history))
	}
	for i := 1; i < len(history); i++ {
		if history[i] > history[i-1] {
			t.Fatalf("best makespan regressed at generation %d", i)
		}
	}
}

func TestPNBatchSizing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialBatch = 200
	pn := NewPN(cfg, rng.New(11))

	// No idle-time history (Inf): the initial batch size.
	s := &stubState{m: 2, rates: []units.Rate{10, 10}, firstIdle: units.Inf()}
	if got := pn.NextBatchSize(1000, s); got != 200 {
		t.Errorf("first batch = %d, want 200", got)
	}
	// Finite idle estimate: H = floor(sqrt(Γs+1)); first observation
	// primes Γs = 899 → 30.
	s.firstIdle = 899
	if got := pn.NextBatchSize(1000, s); got != 30 {
		t.Errorf("dynamic batch = %d, want 30", got)
	}
	// Clamped to queue length.
	if got := pn.NextBatchSize(5, s); got != 5 {
		t.Errorf("clamped batch = %d, want 5", got)
	}
}

func TestPNFixedBatchMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FixedBatch = true
	cfg.InitialBatch = 123
	pn := NewPN(cfg, rng.New(12))
	s := &stubState{m: 2, rates: []units.Rate{10, 10}, firstIdle: 899}
	if got := pn.NextBatchSize(1000, s); got != 123 {
		t.Errorf("fixed batch = %d, want 123", got)
	}
}

func TestZOFixedBatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialBatch = 100
	zo := NewZO(cfg, rng.New(13))
	s := &stubState{m: 2, rates: []units.Rate{10, 10}, firstIdle: 899}
	if got := zo.NextBatchSize(1000, s); got != 100 {
		t.Errorf("ZO batch = %d, want 100", got)
	}
	if got := zo.NextBatchSize(7, s); got != 7 {
		t.Errorf("ZO clamped batch = %d, want 7", got)
	}
	if zo.cfg.Rebalances != 0 {
		t.Error("ZO must never rebalance")
	}
}

// stubState is a minimal sched.State for scheduler-level tests.
type stubState struct {
	m         int
	rates     []units.Rate
	loads     []units.MFlops
	comm      []units.Seconds
	firstIdle units.Seconds
}

func (s *stubState) M() int                { return s.m }
func (s *stubState) Rate(j int) units.Rate { return s.rates[j] }
func (s *stubState) PendingLoad(j int) units.MFlops {
	if s.loads == nil {
		return 0
	}
	return s.loads[j]
}
func (s *stubState) CommEstimate(j int) units.Seconds {
	if s.comm == nil {
		return 0
	}
	return s.comm[j]
}
func (s *stubState) Now() units.Seconds                { return 0 }
func (s *stubState) TimeUntilFirstIdle() units.Seconds { return s.firstIdle }

func TestPNScheduleBatchAssignsAllTasks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Generations = 100
	pn := NewPN(cfg, rng.New(14))
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

// Full-stack: PN drives a simulated cluster end to end.
func TestPNEndToEndSimulation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Generations = 150
	tasks := workload.Generate(workload.Spec{
		N:     300,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, rng.New(15))
	res := sim.Run(sim.Config{
		Cluster:   cluster.NewHeterogeneous(10, 50, 500, rng.New(16)),
		Net:       network.New(10, network.Config{MeanCost: 0.5, LinkSpread: 0.3, Jitter: 0.2}, rng.New(17)),
		Tasks:     tasks,
		Scheduler: NewPN(cfg, rng.New(18)),
	})
	if res.Completed != 300 {
		t.Fatalf("PN completed %d of 300 tasks", res.Completed)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1 {
		t.Errorf("efficiency = %v", res.Efficiency)
	}
	if res.SchedulerBusy <= 0 {
		t.Errorf("scheduler busy time = %v, want > 0 for a GA scheduler", res.SchedulerBusy)
	}
	if res.Invocations == 0 {
		t.Error("no scheduler invocations recorded")
	}
}

func TestPNBeatsRoundRobinEndToEnd(t *testing.T) {
	tasks := workload.Generate(workload.Spec{
		N:     400,
		Sizes: workload.Normal{Mean: 1000, Variance: 9e5},
	}, rng.New(19))
	mkSim := func(s sched.Scheduler) sim.Result {
		return sim.Run(sim.Config{
			Cluster:   cluster.NewHeterogeneous(10, 50, 500, rng.New(20)),
			Net:       network.New(10, network.Config{MeanCost: 1, LinkSpread: 0.3, Jitter: 0.2}, rng.New(21)),
			Tasks:     tasks,
			Scheduler: s,
		})
	}
	cfg := DefaultConfig()
	cfg.Generations = 200
	pnRes := mkSim(NewPN(cfg, rng.New(22)))
	rrRes := mkSim(&sched.RR{})
	if pnRes.Completed != 400 || rrRes.Completed != 400 {
		t.Fatalf("completions: %d, %d", pnRes.Completed, rrRes.Completed)
	}
	if pnRes.Makespan >= rrRes.Makespan {
		t.Errorf("PN makespan %v not better than RR %v", pnRes.Makespan, rrRes.Makespan)
	}
}

func TestPNDeterministicEndToEnd(t *testing.T) {
	run := func() sim.Result {
		cfg := DefaultConfig()
		cfg.Generations = 80
		return sim.Run(sim.Config{
			Cluster: cluster.NewHeterogeneous(6, 50, 500, rng.New(23)),
			Net:     network.New(6, network.Config{MeanCost: 0.5, Jitter: 0.1}, rng.New(24)),
			Tasks: workload.Generate(workload.Spec{
				N:     150,
				Sizes: workload.Poisson{Mean: 100},
			}, rng.New(25)),
			Scheduler: NewPN(cfg, rng.New(26)),
		})
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Efficiency != b.Efficiency {
		t.Errorf("PN simulation not deterministic: %v/%v vs %v/%v",
			a.Makespan, a.Efficiency, b.Makespan, b.Efficiency)
	}
}

func TestZOEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Generations = 150
	tasks := workload.Generate(workload.Spec{
		N:     300,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, rng.New(27))
	res := sim.Run(sim.Config{
		Cluster:   cluster.NewHeterogeneous(10, 50, 500, rng.New(28)),
		Net:       network.New(10, network.Config{MeanCost: 0.5, LinkSpread: 0.3, Jitter: 0.2}, rng.New(29)),
		Tasks:     tasks,
		Scheduler: NewZO(cfg, rng.New(30)),
	})
	if res.Completed != 300 {
		t.Fatalf("ZO completed %d of 300", res.Completed)
	}
}

// The headline claim: predicting communication costs (PN) yields better
// efficiency than ignoring them (ZO) when links are expensive and
// heterogeneous.
func TestPNBeatsZOWithExpensiveLinks(t *testing.T) {
	tasks := workload.Generate(workload.Spec{
		N:     300,
		Sizes: workload.Normal{Mean: 1000, Variance: 9e5},
	}, rng.New(31))
	run := func(mk func() sched.Scheduler) float64 {
		res := sim.Run(sim.Config{
			Cluster: cluster.NewHeterogeneous(10, 50, 500, rng.New(32)),
			Net: network.New(10, network.Config{
				MeanCost: 5, LinkSpread: 0.8, Jitter: 0.2,
			}, rng.New(33)),
			Tasks:     tasks,
			Scheduler: mk(),
		})
		if res.Completed != 300 {
			t.Fatalf("incomplete run: %d", res.Completed)
		}
		return res.Efficiency
	}
	cfg := DefaultConfig()
	cfg.Generations = 200
	pnEff := run(func() sched.Scheduler { return NewPN(cfg, rng.New(34)) })
	zoEff := run(func() sched.Scheduler { return NewZO(cfg, rng.New(34)) })
	if pnEff <= zoEff {
		t.Errorf("PN efficiency %v not above ZO %v with expensive links", pnEff, zoEff)
	}
}
