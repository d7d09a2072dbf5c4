package core

import (
	"context"

	"pnsched/internal/ga"
	"pnsched/internal/island"
	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// EvolveStats reports one GA scheduling run.
type EvolveStats struct {
	Result ga.Result
	// BestMakespan is the lowest predicted makespan seen across all
	// generations (§3.4 tracks "the individual with the lowest
	// makespan").
	BestMakespan units.Seconds
	// Evals counts fitness evaluations, including those performed by
	// the rebalancing heuristic. Under incremental evaluation an
	// evaluation may be a cheap delta; GenesEvaluated is the work.
	Evals int
	// GenesEvaluated is the total evaluation work in chromosome
	// positions scanned, across the GA engine and the §3.5 rebalancer
	// (for island runs: summed over all islands).
	GenesEvaluated int
	// ModelledCost is the simulated scheduler compute time for the
	// run: CostPerGene × GenesEvaluated (for island runs, × the
	// busiest island's genes — the islands run in parallel).
	ModelledCost units.Seconds
}

// IslandConfig parametrises the island-model variant of the PN
// scheduler: how many populations evolve concurrently per batch
// decision and how they exchange elites (see internal/island). With
// an Observer configured, EvolveIsland reports rounds and migrations
// to it in place of OnRound and OnMigration.
type IslandConfig = island.Config

// lane is one population of a GA run — the whole run under Evolve, one
// island under EvolveIsland — and everything the paper's method keeps
// per population: the evaluator stack with the gene ledger behind it,
// the §3.5 rebalancer billing that same ledger, the lowest makespan
// seen so far (§3.4) and the §3.4 budget predicate. Only the goroutine
// evolving a lane touches it while the run is in flight.
type lane struct {
	cfg    Config        // defaults applied
	budget units.Seconds // modelled time until the first processor idles

	// eval is what the engine scores with and the one gene ledger of
	// the lane: the budget predicate and the final bill both read it,
	// rebalancer work included. It is inc; the interface is what lets
	// the equivalence tests run a lane on a full-evaluation oracle.
	eval interface {
		ga.Evaluator
		GenesEvaluated() int
	}
	inc *IncrementalEvaluator
	rb  *Rebalancer

	bestMk units.Seconds // §3.4: the lowest makespan seen so far
	// worstGen upper-bounds the genes one more generation can bill: a
	// full population sweep plus two evaluations per §3.5 rebalance
	// attempt plus the mutation deltas (the incremental engine only
	// ever does less), plus whatever the driver charges outside the
	// generation loop.
	worstGen  int
	budgetHit bool

	// hooks holds the lane's engine callbacks (Stop, OnGeneration,
	// PostGeneration), bound to this lane once, so a pooled lane is
	// rebound without allocating them again.
	hooks ga.Config
}

// newLane builds one lane over the problem and the engine configuration
// that evolves it, stopped by the lane's §3.4 budget predicate. cfg
// must have defaults applied. reserve is the gene work charged to the
// lane's ledger between generations — island runs pass the per-round
// migration charge (each injected migrant is one full evaluation) — so
// the budget predicate holds room for it.
func newLane(p *Problem, cfg Config, budget units.Seconds, reserve int) (*lane, ga.Config) {
	l := new(lane)
	return l, l.bind(p, cfg, budget, reserve, new(Rebalancer), new(IncrementalEvaluator))
}

// bind (re)starts l as newLane describes, with inc as its evaluator and
// rb as its rebalancer bound to it; both are reset to the problem with
// their ledgers zeroed and keep their buffers.
func (l *lane) bind(p *Problem, cfg Config, budget units.Seconds, reserve int, rb *Rebalancer, inc *IncrementalEvaluator) ga.Config {
	hooks := l.hooks
	if hooks.Stop == nil {
		hooks = ga.Config{Stop: l.overBudget, OnGeneration: l.track, PostGeneration: l.rebalance}
	}
	inc.bind(p)
	rb.reset(p)
	rb.BindSlots(inc)
	*l = lane{cfg: cfg, budget: budget, eval: inc, inc: inc, rb: rb, bestMk: units.Inf(), hooks: hooks}
	// One swap mutation per generation.
	l.worstGen = ChromosomeLen(len(p.Batch), p.M)*(cfg.Population*(1+2*cfg.Rebalances)+1) + reserve

	gaCfg := ga.Config{
		PopulationSize: cfg.Population,
		MaxGenerations: cfg.Generations,
		Crossover:      cfg.Crossover,
		Elitism:        true,
		Stop:           hooks.Stop,
		OnGeneration:   hooks.OnGeneration,
	}
	if cfg.Rebalances > 0 {
		gaCfg.PostGeneration = hooks.PostGeneration
	}
	return gaCfg
}

// track is the lane's ga.Config.OnGeneration: §3.4's lowest makespan
// so far, read from the best individual's cached completion times (the
// engine saves the best-so-far before every call).
func (l *lane) track(int, ga.Chromosome, float64) {
	if mk, ok := l.inc.BestMakespan(); ok && mk < l.bestMk {
		l.bestMk = mk
	}
}

// rebalance is the lane's ga.Config.PostGeneration: the §3.5 heuristic
// over every individual, against its slot's cached state.
func (l *lane) rebalance(pop []ga.Chromosome, r *rng.RNG) {
	for i, ind := range pop {
		l.rb.ApplySlot(i, ind, l.cfg.Rebalances, r)
	}
}

// overBudget is the §3.4 stop-when-idle predicate — "The GA will also
// stop evolving if one of the processors becomes idle" — modelled as
// the lane's cumulative compute cost exhausting the time budget:
// evolution stops before any generation whose worst-case cost could
// push the bill past the budget. The check and ModelledCost read the
// same ledger, so a run never overruns its budget; the price is
// conservatism of at most one worst-case generation.
func (l *lane) overBudget(int, float64) bool {
	l.budgetHit = l.cfg.cost(l.eval.GenesEvaluated()+l.worstGen) > l.budget
	return l.budgetHit
}

// finish closes a GA run over its lanes: the ledger is the sum of the
// lanes', the bill follows the busiest lane — lanes run on separate
// cores, and with one lane the sum is the maximum — and the observer
// hears one BudgetStop if any lane ran out of budget (the run is one
// scheduling decision, however many lanes hit it) and the one
// EvolveDone. res carries the driver's best individual, generation
// count, stop reason and engine evaluations.
func finish(cfg Config, budget units.Seconds, lanes []*lane, res ga.Result) EvolveStats {
	st := EvolveStats{Result: res, BestMakespan: lowestMakespan(lanes)}
	busiest, rbEvals, budgetHit := 0, 0, false
	for _, l := range lanes {
		genes := l.eval.GenesEvaluated()
		st.GenesEvaluated += genes
		busiest = max(busiest, genes)
		rbEvals += l.rb.Evals
		budgetHit = budgetHit || l.budgetHit
	}
	st.Evals = res.Evaluations + rbEvals
	st.ModelledCost = cfg.cost(busiest)
	if cfg.Observer == nil {
		return st
	}
	if budgetHit {
		cfg.Observer.OnBudgetStop(observe.BudgetStop{
			Generation: res.Generations,
			Budget:     budget,
			Spent:      st.ModelledCost,
		})
	}
	cfg.Observer.OnEvolveDone(observe.EvolveDone{
		Generations:    res.Generations,
		Evaluations:    st.Evals,
		Genes:          st.GenesEvaluated,
		RebalanceEvals: rbEvals,
		Budget:         finiteOrZero(budget),
		Spent:          st.ModelledCost,
		BestMakespan:   finiteOrZero(st.BestMakespan),
		Reason:         res.Reason.String(),
	})
	return st
}

// lowestMakespan is §3.4's lowest makespan so far across the lanes.
func lowestMakespan(lanes []*lane) units.Seconds {
	mk := units.Inf()
	for _, l := range lanes {
		if l.bestMk < mk {
			mk = l.bestMk
		}
	}
	return mk
}

// finiteOrZero maps the +Inf sentinel (unlimited budget, no makespan
// seen yet) to zero so the EvolveDone ledger stays JSON-encodable end
// to end.
func finiteOrZero(b units.Seconds) units.Seconds {
	if b.IsInf() {
		return 0
	}
	return b
}

// Evolve runs the §3 genetic algorithm once over a problem: seeded with
// the supplied population, evolving under the paper's stopping
// conditions (the generation cap and the budget — the modelled time
// until the first processor goes idle). It returns the best schedule
// found. It is one lane driven by a ga.Engine to completion, as ga.Run
// drives one.
//
// The run borrows a workspace from a package-level pool and returns it
// when done: the engine with its population slots and Scratch, the
// incremental evaluator's slot caches and the rebalancer's scratch
// (see workspace). A run of a shape the pool has served before
// allocates none of them; what it still allocates is the returned
// best chromosome, and the observer's hook when one is set.
func Evolve(p *Problem, cfg Config, initial []ga.Chromosome, budget units.Seconds, r *rng.RNG) EvolveStats {
	w := workspaces.Get().(*workspace)
	defer workspaces.Put(w)
	return w.evolve(p, cfg, initial, budget, r)
}

// evolve is Evolve in w.
func (w *workspace) evolve(p *Problem, cfg Config, initial []ga.Chromosome, budget units.Seconds, r *rng.RNG) EvolveStats {
	cfg.applyDefaults()
	l := &w.lane
	gaCfg := l.bind(p, cfg, budget, 0, &w.rb, &w.inc)
	if cfg.Observer != nil {
		gaCfg.OnGeneration = func(gen int, best ga.Chromosome, fitness float64) {
			l.track(gen, best, fitness)
			cfg.Observer.OnGenerationBest(observe.GenerationBest{Generation: gen, Makespan: l.bestMk})
		}
	}
	w.eng.Reset(gaCfg, l.eval, initial, r)
	for w.eng.Step() {
	}
	return finish(cfg, budget, []*lane{l}, w.eng.Result())
}

// EvolveIsland runs the §3 genetic algorithm as a parallel island
// model over the problem: IslandConfig.Islands independent populations
// evolve concurrently — each seeded with its own list-scheduling
// population, rebalanced by its own §3.5 rebalancer, and stopped by
// the same conditions Evolve honours (the generation cap and the budget
// until the first processor idles) — with ring migration of elites
// between them. It is N lanes under island.Run.
// Cancelling ctx aborts all islands promptly.
//
// The modelled scheduler cost is the parallel one: the islands run on
// separate cores, so the charged compute time follows the busiest
// island, not the sum — that is the speedup the island model buys.
//
// The §3.4 budget is enforced island-locally: each island stops once
// its own gene ledger (it runs on its own core, so its own modelled
// elapsed time) exhausts the budget. A stop never cancels the other
// islands mid-round, so every run ScheduleBatch makes is deterministic
// in (seed, N). See the internal/island package documentation for the
// full contract.
func EvolveIsland(ctx context.Context, p *Problem, cfg Config, icfg IslandConfig, budget units.Seconds, r *rng.RNG) EvolveStats {
	cfg.applyDefaults()
	// The per-round ring-migration injections (one full evaluation per
	// migrant) are charged to the gene ledger outside the generation
	// loop, so the budget predicate must reserve for them too.
	reserve := ChromosomeLen(len(p.Batch), p.M) * min(icfg.MigrantsPerExchange(), cfg.Population)

	// island.Run sets the islands up one after another, before any of
	// them evolves.
	var lanes []*lane
	setup := func(_ int, ri *rng.RNG) island.Setup {
		l, gaCfg := newLane(p, cfg, budget, reserve)
		lanes = append(lanes, l)
		return island.Setup{
			GA:      gaCfg,
			Eval:    l.eval,
			Initial: ListPopulation(p, cfg.Population, ri),
		}
	}
	if cfg.Observer != nil {
		icfg.OnRound = func(_, gens int) {
			cfg.Observer.OnGenerationBest(observe.GenerationBest{Generation: gens, Makespan: lowestMakespan(lanes)})
		}
		icfg.OnMigration = func(round, migrated int) {
			cfg.Observer.OnMigration(observe.Migration{Round: round, Migrants: migrated})
		}
	}
	res := island.Run(ctx, icfg, setup, r)
	return finish(cfg, budget, lanes, ga.Result{
		Best:        res.Best,
		BestFitness: res.BestFitness,
		Generations: res.Generations,
		Reason:      res.Reason,
		Evaluations: res.Evaluations,
	})
}
