package island

import (
	"context"
	"runtime"
	"sync"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
)

// Defaults applied by Run for zero Config fields.
const (
	// DefaultMigrationInterval is how many generations each island
	// evolves between migrations. 25 gives the paper's 1000-generation
	// run 40 exchanges — frequent enough to share discoveries, rare
	// enough that islands explore independently in between.
	DefaultMigrationInterval = 25
	// DefaultMigrants is how many elites each island sends to its ring
	// neighbour per migration — 2 of the micro-GA's 20 individuals.
	DefaultMigrants = 2
)

// Config parametrises an island-model run. Per-island engine settings
// (population size, generation cap, operators, stop condition) come
// from the Setup each island receives, not from Config.
type Config struct {
	// Islands is the number of concurrent populations; default
	// runtime.NumCPU(). 1 degenerates to the sequential engine (no
	// migration).
	Islands int
	// MigrationInterval is the round length in generations; values
	// below 1 select DefaultMigrationInterval.
	MigrationInterval int
	// Migrants is how many elites each island sends per migration;
	// default DefaultMigrants. It is clamped to the population size,
	// and 0 (after defaulting: a negative value) disables migration.
	Migrants int
	// OnRound, when non-nil, observes every round barrier from the
	// coordinator goroutine: the 1-based round number and the number
	// of generations the most advanced island has completed.
	OnRound func(round, generations int)
	// OnMigration, when non-nil, observes every completed ring
	// exchange from the coordinator goroutine: the 1-based round and
	// the number of individuals injected across the whole ring. Rounds
	// where migration is disabled or no island was live to exchange
	// are not reported.
	OnMigration func(round, migrated int)
}

func (c *Config) applyDefaults() {
	if c.Islands < 1 {
		c.Islands = runtime.NumCPU()
	}
	// Below 1 the round loop would never advance any engine; treat all
	// such values as "use the default".
	if c.MigrationInterval < 1 {
		c.MigrationInterval = DefaultMigrationInterval
	}
	c.Migrants = c.MigrantsPerExchange()
}

// MigrantsPerExchange returns the migrant count Run will use after
// defaulting — 0 selects DefaultMigrants, negative values disable
// migration — before the per-island clamp to the population size
// (Elites/Inject apply that). Exported so callers budgeting for
// migration work (core.EvolveIsland reserves one full evaluation per
// injected migrant) share this resolution rather than re-implementing
// it.
func (c Config) MigrantsPerExchange() int {
	switch {
	case c.Migrants == 0:
		return DefaultMigrants
	case c.Migrants < 0:
		return 0
	}
	return c.Migrants
}

// Setup is one island's engine inputs, built by the setup callback
// passed to Run. Each island needs its own Evaluator (evaluators carry
// scratch buffers and are not goroutine-safe) and its own initial
// population.
type Setup struct {
	// GA configures the island's sequential engine. Stop, OnGeneration
	// and PostGeneration closures are called from the island's own
	// goroutine; they must not share mutable state with other islands.
	// GA.Stop stops only this island and never cancels its peers, so a
	// run it ends stays deterministic in (seed, N). The §3.4 per-island
	// evaluation budget uses it: each island runs on its own core and
	// exhausts the budget at its own deterministic generation. An
	// island stopped this way still ends the round loop at the next
	// barrier.
	GA ga.Config
	// Eval scores this island's chromosomes.
	Eval ga.Evaluator
	// Initial seeds this island's population.
	Initial []ga.Chromosome
}

// Result reports a finished island run.
type Result struct {
	// Best is the fittest individual found by any island; BestIsland
	// says which one found it (ties resolve to the lowest index).
	Best        ga.Chromosome
	BestFitness float64
	BestIsland  int
	// Generations is the largest per-island generation count.
	Generations int
	// Rounds is the number of migration rounds completed.
	Rounds int
	// Migrated counts individuals exchanged over the ring.
	Migrated int
	// Evaluations sums fitness evaluations across all islands.
	Evaluations int
	// Reason is the callback reason if any island stopped by callback
	// (or cancellation), the generation cap otherwise.
	Reason ga.StopReason
	// Islands holds each island's own ga.Result.
	Islands []ga.Result
}

// Run evolves cfg.Islands populations concurrently with periodic ring
// migration and returns the best individual found by any of them.
// setup is called once per island, before any evolution, with the
// island index and the island's private random stream (derived from r;
// r itself is not advanced) — it must return the island's engine
// configuration, evaluator and initial population. Cancelling ctx
// aborts all islands promptly (each polls between generations); an
// island's own GA.Stop stops only that island. See the package
// documentation for the determinism contract.
func Run(ctx context.Context, cfg Config, setup func(island int, r *rng.RNG) Setup, r *rng.RNG) Result {
	cfg.applyDefaults()
	n := cfg.Islands

	engines := make([]*ga.Engine, n)
	for i := 0; i < n; i++ {
		ri := r.Stream(uint64(i) + 1)
		s := setup(i, ri)
		gaCfg := s.GA
		// A cancelled context stops this island too.
		stop := gaCfg.Stop
		gaCfg.Stop = func(gen int, bestFitness float64) bool {
			return ctx.Err() != nil || (stop != nil && stop(gen, bestFitness))
		}
		engines[i] = ga.NewEngine(gaCfg, s.Eval, s.Initial, ri)
	}

	res := Result{BestIsland: -1}
	for {
		live := 0
		for _, e := range engines {
			if !e.Done() {
				live++
			}
		}
		if live == 0 {
			break
		}

		// Advance every live island by one round, concurrently. Each
		// engine stops itself mid-round when a stop condition (cap,
		// callback, cancellation) fires.
		var wg sync.WaitGroup
		for _, e := range engines {
			if e.Done() {
				continue
			}
			wg.Add(1)
			go func(e *ga.Engine) {
				defer wg.Done()
				for s := 0; s < cfg.MigrationInterval; s++ {
					if !e.Step() {
						return
					}
				}
			}(e)
		}
		wg.Wait()
		res.Rounds++

		// Barrier: report the round and evaluate the stop conditions.
		if cfg.OnRound != nil {
			cfg.OnRound(res.Rounds, maxGeneration(engines))
		}
		stop := ctx.Err() != nil
		for _, e := range engines {
			if e.Done() && e.Result().Reason == ga.StopCallback {
				stop = true
			}
		}
		if stop {
			// Run the live islands on to their own stop conditions, so
			// every engine's Result is final, then stop rounds.
			for _, e := range engines {
				for e.Step() {
				}
			}
			break
		}

		// Ring migration: island i's elites replace island (i+1)%N's
		// weakest individuals. Elites are all collected before any
		// injection, so the exchange uses pre-migration populations.
		if n > 1 && cfg.Migrants > 0 {
			elites := make([][]ga.Chromosome, n)
			for i, e := range engines {
				if !e.Done() {
					elites[i] = e.Elites(cfg.Migrants)
				}
			}
			exchanged := 0
			for i, e := range engines {
				src := (i - 1 + n) % n
				if e.Done() || elites[src] == nil {
					continue
				}
				e.Inject(elites[src])
				exchanged += len(elites[src])
			}
			res.Migrated += exchanged
			if exchanged > 0 && cfg.OnMigration != nil {
				cfg.OnMigration(res.Rounds, exchanged)
			}
		}
	}

	// Final, deterministic summary in island order.
	res.Best, res.BestFitness, res.BestIsland = bestOf(engines)
	res.Generations = maxGeneration(engines)
	res.Reason = ga.StopMaxGenerations
	res.Islands = make([]ga.Result, n)
	for i, e := range engines {
		ir := e.Result()
		res.Islands[i] = ir
		res.Evaluations += ir.Evaluations
		if ir.Reason == ga.StopCallback {
			res.Reason = ga.StopCallback
		}
	}
	return res
}

// bestOf scans the engines in island order and returns a clone of the
// strictly fittest best-so-far (ties to the lowest island index).
func bestOf(engines []*ga.Engine) (best ga.Chromosome, fitness float64, island int) {
	island = -1
	for i, e := range engines {
		c, f := e.Best()
		if island < 0 || f > fitness {
			best, fitness, island = c, f, i
		}
	}
	return best, fitness, island
}

// maxGeneration is the largest per-island generation count.
func maxGeneration(engines []*ga.Engine) int {
	gens := 0
	for _, e := range engines {
		gens = max(gens, e.Generation())
	}
	return gens
}
