package core

import (
	"context"
	"testing"

	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// ledgerRun is what one GA run reports about its own cost, as the
// EvolveDone event states it.
type ledgerRun struct {
	done        observe.EvolveDone
	budgetStops int
}

// The table below was recorded at the commit before Evolve and
// EvolveIsland were folded onto one lane (PR 22) and must never be
// regenerated to make a change pass: TestGoldenEvolve hashes Result
// only, so the roll-up of the gene ledger into EvolveStats and
// EvolveDone — evaluations including the rebalancer's, the busiest
// island's bill, the lowest makespan seen — is pinned here. The work
// columns (and the budget rows' generations, which that work buys) were
// re-recorded when crossover children came to be derived from a parent's
// cached queues; the cap rows' Generations and BestMakespan were not.
var ledgerGolden = map[string]ledgerRun{
	"evolve/cap": {done: observe.EvolveDone{
		Generations: 40, Evaluations: 958, Genes: 53927, RebalanceEvals: 938,
		Spent: 0.010785399999999999, BestMakespan: 26.389510542607972, Reason: "max-generations"}},
	"evolve/budget": {budgetStops: 1, done: observe.EvolveDone{
		Generations: 12, Evaluations: 341, Genes: 22439, RebalanceEvals: 321,
		Budget: 0.005449999999999999, Spent: 0.0044878, BestMakespan: 26.389510542607972, Reason: "callback"}},
	"island/cap": {done: observe.EvolveDone{
		Generations: 40, Evaluations: 2914, Genes: 161983, RebalanceEvals: 2734,
		Spent: 0.011124, BestMakespan: 25.904827319869767, Reason: "max-generations"}},
	"island/budget": {budgetStops: 1, done: observe.EvolveDone{
		Generations: 12, Evaluations: 974, Genes: 62836, RebalanceEvals: 884,
		Budget: 0.005449999999999999, Spent: 0.0042438, BestMakespan: 25.92179243522773, Reason: "callback"}},
}

// TestEvolveLedger: for both drivers, cap- and budget-terminated, the
// one EvolveDone event equals the returned EvolveStats field for field
// and the recorded run, a budget stop is announced exactly once
// (however many islands hit it), and the reported best makespan never
// rises.
func TestEvolveLedger(t *testing.T) {
	p := benchProblem(100, 10, 5)
	genes := ChromosomeLen(100, 10)
	for _, driver := range []string{"evolve", "island"} {
		for _, stop := range []string{"cap", "budget"} {
			name := driver + "/" + stop
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Generations = 40
				budget := units.Inf()
				if stop == "budget" {
					budget = units.Seconds(12.5 * float64(cfg.CostPerGene) * float64(genes) * float64(cfg.Population))
				}
				var got ledgerRun
				dones := 0
				last := units.Inf()
				cfg.Observer = observe.Funcs{
					EvolveDone: func(e observe.EvolveDone) { got.done = e; dones++ },
					BudgetStop: func(e observe.BudgetStop) {
						got.budgetStops++
						if e.Budget != budget {
							t.Errorf("BudgetStop.Budget = %v, want %v", e.Budget, budget)
						}
					},
					GenerationBest: func(e observe.GenerationBest) {
						if e.Makespan > last {
							t.Errorf("generation %d: best makespan rose %v -> %v", e.Generation, last, e.Makespan)
						}
						last = e.Makespan
					},
				}
				r := rng.New(6)
				var st EvolveStats
				if driver == "island" {
					st = EvolveIsland(context.Background(), p, cfg, IslandConfig{Islands: 3, MigrationInterval: 2}, budget, r)
				} else {
					st = Evolve(p, cfg, ListPopulation(p, cfg.Population, r), budget, r)
				}
				if dones != 1 {
					t.Fatalf("%d EvolveDone events, want 1", dones)
				}
				if want := ledgerGolden[name]; got != want {
					t.Errorf("ledger\n got %#v\nwant %#v", got, want)
				}
				d := got.done
				if d.Generations != st.Result.Generations || d.Evaluations != st.Evals ||
					d.Genes != st.GenesEvaluated || d.Spent != st.ModelledCost ||
					d.BestMakespan != st.BestMakespan || d.Reason != st.Result.Reason.String() {
					t.Errorf("EvolveDone %#v disagrees with EvolveStats %#v", d, st)
				}
				if last != st.BestMakespan {
					t.Errorf("last GenerationBest %v, EvolveStats.BestMakespan %v", last, st.BestMakespan)
				}
			})
		}
	}
}
