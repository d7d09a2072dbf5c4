package core

import (
	"context"

	"pnsched/internal/ga"
	"pnsched/internal/island"
	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// The naive evaluation lane is the oracle the shipped GA is held to:
// every individual is scored from scratch every generation, and the
// §3.5 rebalancer scores the schedule before and after every candidate
// swap with a full completion-time computation. The equivalence tests
// run it beside the shipped lane and compare schedules, trajectories
// and gene bills; the plain rows of TestGoldenEvolve and
// BenchmarkEvolveNaive run on it.

// countingEvaluator scores every chromosome from scratch and keeps the
// gene ledger the §3.4 budget reads: each evaluation charges the whole
// chromosome. It allocates nothing per evaluation.
type countingEvaluator struct {
	p       *Problem
	scratch []units.Seconds
	genes   int
}

func newCountingEvaluator(p *Problem) *countingEvaluator {
	return &countingEvaluator{p: p, scratch: make([]units.Seconds, p.M)}
}

func (e *countingEvaluator) Fitness(c ga.Chromosome) float64 {
	e.genes += len(c)
	return fitnessFromError(e.p.relativeErrorFrom(e.p.CompletionTimes(c, e.scratch)))
}

func (e *countingEvaluator) GenesEvaluated() int { return e.genes }

// naiveRebalancer is the standalone §3.5 rebalancer StepSlot is held
// to. It shares the problem, the probe scratch and the Evals count with
// the Rebalancer it embeds, and bills each full evaluation to charge
// when that is set.
type naiveRebalancer struct {
	*Rebalancer
	times []units.Seconds
	segs  []int // segment (processor) index per chromosome position
	// heavyPos and otherPos are task positions on the heavy processor
	// and elsewhere.
	heavyPos, otherPos []int
	charge             func(genes int)
}

func newNaiveRebalancer(p *Problem) *naiveRebalancer {
	return &naiveRebalancer{Rebalancer: NewRebalancer(p)}
}

// fitness evaluates c from scratch.
func (rb *naiveRebalancer) fitness(c ga.Chromosome) float64 {
	rb.Evals++
	if rb.charge != nil {
		rb.charge(len(c))
	}
	times := rb.p.CompletionTimes(c, rb.ftimes)
	return fitnessFromError(rb.p.relativeErrorFrom(times))
}

// Step performs one rebalancing attempt on c in place: select the most
// heavily loaded processor, probe up to five times for a task on
// another processor that is smaller than a task on the heavy one, swap
// the pair, and keep the result only if the schedule's fitness
// improved. It reports whether a swap was kept.
func (rb *naiveRebalancer) Step(c ga.Chromosome, r *rng.RNG) bool {
	p := rb.p

	// Segment every position and find the heavy processor.
	if cap(rb.segs) < len(c) {
		rb.segs = make([]int, len(c))
	}
	segs := rb.segs[:len(c)]
	seg := 0
	for i, sym := range c {
		if sym < 0 {
			seg++
			segs[i] = -1 // delimiter positions are not swappable
			continue
		}
		segs[i] = seg
	}

	rb.times = p.CompletionTimes(c, rb.times)
	heavy := 0
	for j := 1; j < p.M; j++ {
		if rb.times[j] > rb.times[heavy] {
			heavy = j
		}
	}

	heavyPos, otherPos := rb.heavyPos[:0], rb.otherPos[:0]
	for i, s := range segs {
		switch {
		case s == heavy:
			heavyPos = append(heavyPos, i)
		case s >= 0:
			otherPos = append(otherPos, i)
		}
	}
	rb.heavyPos, rb.otherPos = heavyPos, otherPos
	if len(heavyPos) == 0 || len(otherPos) == 0 {
		return false
	}

	for probe := 0; probe < maxProbes; probe++ {
		hi := heavyPos[r.Intn(len(heavyPos))]
		oi := otherPos[r.Intn(len(otherPos))]
		if p.sizes[c[oi]] >= p.sizes[c[hi]] {
			continue // the probed task is not smaller; search again
		}
		before := rb.fitness(c)
		c[hi], c[oi] = c[oi], c[hi]
		after := rb.fitness(c)
		if after > before {
			return true
		}
		c[hi], c[oi] = c[oi], c[hi] // revert: not fitter
		return false
	}
	return false
}

// Apply runs Step n times on c, returning how many swaps were kept.
func (rb *naiveRebalancer) Apply(c ga.Chromosome, n int, r *rng.RNG) int {
	kept := 0
	for i := 0; i < n; i++ {
		if rb.Step(c, r) {
			kept++
		}
	}
	return kept
}

// MakespanInto returns max_j Cⱼ — the predicted total execution time
// of the schedule encoded by c — computed from scratch into a
// caller-owned buffer (allocated when nil).
func (p *Problem) MakespanInto(c ga.Chromosome, scratch []units.Seconds) units.Seconds {
	times := p.CompletionTimes(c, scratch)
	best := times[0]
	for _, t := range times[1:] {
		if t > best {
			best = t
		}
	}
	return best
}

// naiveLane is newLane on the oracle: a countingEvaluator is the
// lane's evaluator and ledger, the standalone rebalancer bills it, and
// the lowest makespan is recomputed from the best chromosome every
// generation. The budget predicate and finish are the shipped ones.
func naiveLane(p *Problem, cfg Config, budget units.Seconds, reserve int) (*lane, ga.Config) {
	l, gaCfg := newLane(p, cfg, budget, reserve)
	eval := newCountingEvaluator(p)
	rb := &naiveRebalancer{Rebalancer: l.rb, charge: func(genes int) { eval.genes += genes }}
	scratch := make([]units.Seconds, p.M)
	l.eval = eval
	gaCfg.OnGeneration = func(_ int, best ga.Chromosome, _ float64) {
		if mk := p.MakespanInto(best, scratch); mk < l.bestMk {
			l.bestMk = mk
		}
	}
	if gaCfg.PostGeneration != nil {
		gaCfg.PostGeneration = func(pop []ga.Chromosome, r *rng.RNG) {
			for _, ind := range pop {
				rb.Apply(ind, cfg.Rebalances, r)
			}
		}
	}
	return l, gaCfg
}

// evolveNaive is Evolve on the naive lane.
func evolveNaive(p *Problem, cfg Config, initial []ga.Chromosome, budget units.Seconds, r *rng.RNG) EvolveStats {
	cfg.applyDefaults()
	l, gaCfg := naiveLane(p, cfg, budget, 0)
	if cfg.Observer != nil {
		track := gaCfg.OnGeneration
		gaCfg.OnGeneration = func(gen int, best ga.Chromosome, fitness float64) {
			track(gen, best, fitness)
			cfg.Observer.OnGenerationBest(observe.GenerationBest{Generation: gen, Makespan: l.bestMk})
		}
	}
	return finish(cfg, budget, []*lane{l}, ga.Run(gaCfg, l.eval, initial, r))
}

// evolveIslandNaive is EvolveIsland with a naive lane on every island.
func evolveIslandNaive(ctx context.Context, p *Problem, cfg Config, icfg IslandConfig, budget units.Seconds, r *rng.RNG) EvolveStats {
	cfg.applyDefaults()
	reserve := ChromosomeLen(len(p.Batch), p.M) * min(icfg.MigrantsPerExchange(), cfg.Population)
	var lanes []*lane
	setup := func(_ int, ri *rng.RNG) island.Setup {
		l, gaCfg := naiveLane(p, cfg, budget, reserve)
		lanes = append(lanes, l)
		return island.Setup{GA: gaCfg, Eval: l.eval, Initial: ListPopulation(p, cfg.Population, ri)}
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

// evolvers returns Evolve and EvolveIsland, or with naive the oracle's
// pair.
func evolvers(naive bool) (
	func(*Problem, Config, []ga.Chromosome, units.Seconds, *rng.RNG) EvolveStats,
	func(context.Context, *Problem, Config, IslandConfig, units.Seconds, *rng.RNG) EvolveStats,
) {
	if naive {
		return evolveNaive, evolveIslandNaive
	}
	return Evolve, EvolveIsland
}
