package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"pnsched/internal/ga"
	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// randomProblem builds a randomized batch-scheduling problem: random
// task sizes, rates, prior loads and communication estimates, with the
// Γc term included or not — the full surface the incremental evaluator
// must reproduce bit-for-bit.
func randomProblem(seed uint64) *Problem {
	r := rng.New(seed)
	n := 20 + r.Intn(50)
	m := 3 + r.Intn(8)
	batch := workload.Generate(workload.Spec{
		N:     n,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, r)
	rates := make([]units.Rate, m)
	loads := make([]units.MFlops, m)
	comm := make([]units.Seconds, m)
	for j := 0; j < m; j++ {
		rates[j] = units.Rate(r.Uniform(10, 100))
		if r.Float64() < 0.5 {
			loads[j] = units.MFlops(r.Uniform(0, 5000))
		}
		comm[j] = units.Seconds(r.Uniform(0.1, 2))
	}
	includeComm := r.Float64() < 0.7
	return BuildProblem(batch, rates, loads, comm, includeComm)
}

// evolveTrace captures everything a run exposes that equivalence must
// cover: the final result and the whole per-generation makespan
// trajectory.
type evolveTrace struct {
	st      EvolveStats
	history []units.Seconds
}

// traceEvolve runs the shipped lane, or with naive the oracle's.
func traceEvolve(p *Problem, cfg Config, seed uint64, islands int, naive bool) evolveTrace {
	var tr evolveTrace
	cfg.Observer = observe.Funcs{GenerationBest: func(e observe.GenerationBest) {
		tr.history = append(tr.history, e.Makespan)
	}}
	evolve, evolveIsland := evolvers(naive)
	r := rng.New(seed)
	if islands > 1 {
		tr.st = evolveIsland(context.Background(), p, cfg, IslandConfig{Islands: islands, MigrationInterval: 5}, units.Inf(), r)
	} else {
		initial := ListPopulation(p, cfg.Population, r)
		tr.st = evolve(p, cfg, initial, units.Inf(), r)
	}
	return tr
}

// freshChildren is the incremental evaluator with every crossover child
// scored from scratch, as before children were derived from a parent's
// cached queues: on the same schedules it bills what that engine
// billed.
type freshChildren struct{ *IncrementalEvaluator }

func (f freshChildren) DeriveCross(dst, _ int, _ ga.Chromosome, _ []int) { f.nxt[dst].valid = false }

// freshChildGenes is the gene bill of an uncapped-budget Evolve from
// ListPopulation under rng.New(seed) — the same schedules — with every
// crossover child scored from scratch.
func freshChildGenes(p *Problem, cfg Config, seed uint64) int {
	cfg.applyDefaults()
	l, gaCfg := newLane(p, cfg, units.Inf(), 0)
	r := rng.New(seed)
	ga.Run(gaCfg, freshChildren{l.inc}, ListPopulation(p, cfg.Population, r), r)
	return l.inc.GenesEvaluated()
}

// TestIncrementalMatchesNaiveEvolve is the determinism guarantee of
// the incremental evaluation engine: for a fixed seed, the shipped lane
// and the naive oracle lane must return byte-identical best schedules,
// best fitness values and per-generation makespan trajectories — over
// randomized problems and all three crossover operators — while
// evaluating strictly fewer genes.
func TestIncrementalMatchesNaiveEvolve(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		p := randomProblem(seed)
		cfg := DefaultConfig()
		cfg.Generations = 40
		cfg.Rebalances = int(seed % 4) // 0..3: pure GA through heavy §3.5 use
		switch seed % 3 {
		case 0:
			cfg.Crossover = ga.PMX
		case 2:
			cfg.Crossover = ga.OX
		}

		inc := traceEvolve(p, cfg, seed^0xfeed, 1, false)
		nai := traceEvolve(p, cfg, seed^0xfeed, 1, true)

		if !slices.Equal(inc.st.Result.Best, nai.st.Result.Best) {
			t.Fatalf("seed %d: best schedules diverged", seed)
		}
		if inc.st.Result.BestFitness != nai.st.Result.BestFitness ||
			inc.st.BestMakespan != nai.st.BestMakespan ||
			inc.st.Result.Generations != nai.st.Result.Generations {
			t.Fatalf("seed %d: results diverged: %+v vs %+v", seed, inc.st, nai.st)
		}
		if len(inc.history) != len(nai.history) {
			t.Fatalf("seed %d: trajectory lengths %d vs %d", seed, len(inc.history), len(nai.history))
		}
		for g := range inc.history {
			if inc.history[g] != nai.history[g] {
				t.Fatalf("seed %d: trajectories diverged at generation %d: %v vs %v",
					seed, g, inc.history[g], nai.history[g])
			}
		}
		if inc.st.GenesEvaluated >= nai.st.GenesEvaluated {
			t.Errorf("seed %d: incremental evaluated %d genes, naive %d — no saving",
				seed, inc.st.GenesEvaluated, nai.st.GenesEvaluated)
		}
	}
}

// TestChildDeltaBill holds the crossover-child delta to its saving at
// the paper's scale (batch 200, M 50, one rebalance, a capped run, so
// the schedules are the same either way): CX and PMX children of a
// converging population are mostly near-copies of a parent, and the run
// bills under 40 % of the genes it billed scoring every child from
// scratch. An OX child is its parent's order shifted round the segment
// it keeps, rarely a near-copy, so OX is held only to a saving.
func TestChildDeltaBill(t *testing.T) {
	p := benchProblem(200, 50, 4242)
	for _, tc := range []struct {
		name     string
		op       ga.Crossover
		maxShare float64
	}{{"CX", ga.CX, 0.4}, {"PMX", ga.PMX, 0.4}, {"OX", ga.OX, 1}} {
		cfg := DefaultConfig()
		cfg.Generations = 100
		cfg.Crossover = tc.op
		r := rng.New(7)
		derived := Evolve(p, cfg, ListPopulation(p, cfg.Population, r), units.Inf(), r).GenesEvaluated
		fresh := freshChildGenes(p, cfg, 7)
		if share := float64(derived) / float64(fresh); share >= tc.maxShare {
			t.Errorf("%s: derived children billed %d genes, fresh children %d (%.2f, want < %.2f)",
				tc.name, derived, fresh, share, tc.maxShare)
		}
	}
}

// TestIslandIncrementalMatchesNaive extends the equivalence guarantee
// across the island-model runner: concurrent islands with migration,
// each on its own incremental evaluator, must reproduce the naive
// run's result exactly. Run under -race (the CI default) this also
// exercises the slot caches for data races.
func TestIslandIncrementalMatchesNaive(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		p := randomProblem(seed + 100)
		cfg := DefaultConfig()
		cfg.Generations = 30
		cfg.Rebalances = int(seed % 2)

		inc := traceEvolve(p, cfg, seed, 3, false)
		nai := traceEvolve(p, cfg, seed, 3, true)

		if !slices.Equal(inc.st.Result.Best, nai.st.Result.Best) ||
			inc.st.Result.BestFitness != nai.st.Result.BestFitness ||
			inc.st.BestMakespan != nai.st.BestMakespan {
			t.Fatalf("seed %d: island runs diverged: %v vs %v", seed, inc.st.BestMakespan, nai.st.BestMakespan)
		}
		if inc.st.GenesEvaluated >= nai.st.GenesEvaluated {
			t.Errorf("seed %d: incremental islands evaluated %d genes, naive %d",
				seed, inc.st.GenesEvaluated, nai.st.GenesEvaluated)
		}
	}
}

// TestIncrementalDeltaMatchesFullEvaluation drives the slot cache
// directly through randomized swap sequences — task-task swaps within
// and across queues plus delimiter moves — asserting after every step
// that the cached completion times and fitness are bit-identical to a
// from-scratch evaluation.
func TestIncrementalDeltaMatchesFullEvaluation(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		p := randomProblem(seed + 500)
		r := rng.New(seed ^ 0xdead)
		c := RandomPopulation(p, 1, r)[0]

		ev := NewIncrementalEvaluator(p)
		ev.InitSlots(1)
		if f, computed := ev.FitnessSlot(0, c); !computed || f != p.Fitness(c) {
			t.Fatalf("seed %d: initial slot evaluation wrong: %v vs %v", seed, f, p.Fitness(c))
		}

		for step := 0; step < 60; step++ {
			i := r.Intn(len(c))
			j := r.Intn(len(c) - 1)
			if j >= i {
				j++
			}
			c[i], c[j] = c[j], c[i]
			ev.SwapAt(0, c, i, j)

			f, _ := ev.FitnessSlot(0, c)
			if want := p.Fitness(c); f != want {
				t.Fatalf("seed %d step %d: fitness %v, want %v (swap %d,%d)", seed, step, f, want, i, j)
			}
			s := ev.slot(0)
			wantTimes := p.CompletionTimes(c, nil)
			for q := range wantTimes {
				got, want := float64(s.times[q]), float64(wantTimes[q])
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("seed %d step %d: queue %d time %v, want %v", seed, step, q, got, want)
				}
			}
		}
	}
}

// TestIncrementalRebalancerMatchesStandalone: the slot-aware rebalancer
// must take the exact decisions (and RNG draws) of the standalone one.
func TestIncrementalRebalancerMatchesStandalone(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		p := randomProblem(seed + 900)
		c1 := ListPopulation(p, 1, rng.New(seed))[0]
		c2 := c1.Clone()

		rbNaive := newNaiveRebalancer(p)
		ev := NewIncrementalEvaluator(p)
		ev.InitSlots(1)
		rbSlot := NewRebalancer(p)
		rbSlot.BindSlots(ev)

		r1, r2 := rng.New(seed*7+1), rng.New(seed*7+1)
		for round := 0; round < 25; round++ {
			kept1 := rbNaive.Step(c1, r1)
			kept2 := rbSlot.StepSlot(0, c2, r2)
			if kept1 != kept2 || !slices.Equal(c1, c2) {
				t.Fatalf("seed %d round %d: rebalancer modes diverged (kept %v vs %v)", seed, round, kept1, kept2)
			}
		}
	}
	// StepSlot's screen, on every problem family of FuzzRebalanceScreen.
	for kind := range screenKinds {
		for seed := uint64(0); seed < 32; seed++ {
			matchScreen(t, seed, kind, 64)
		}
	}
}
