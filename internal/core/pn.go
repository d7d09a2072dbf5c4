package core

import (
	"context"
	"math"

	"pnsched/internal/ga"
	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/smoothing"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// Defaults for Config, straight from the paper.
const (
	// DefaultPopulation is the micro-GA population size (§4.2, citing
	// Chipperfield & Flemming): "a population size of 20 ... speeds up
	// computation time without impacting greatly on the final result".
	DefaultPopulation = 20
	// DefaultGenerations is the §3.4 cap: "The maximum number of
	// generations is set at 1000".
	DefaultGenerations = 1000
	// DefaultRebalances is the §3.5 choice: "we have decided to only
	// perform a single re-balancing at each generation to enable the
	// algorithm to run quickly".
	DefaultRebalances = 1
	// DefaultInitialBatch is the batch size used before any idle-time
	// history exists; §4.3 uses batches of 200.
	DefaultInitialBatch = 200
	// DefaultMaxBatch caps the §3.7 dynamic batch size (a fixed batch
	// is not capped).
	DefaultMaxBatch = 1000
	// DefaultNu is the smoothing factor for the Γs estimate driving the
	// dynamic batch size.
	DefaultNu = 0.5
	// DefaultCostPerGene is the modelled scheduler compute cost per
	// gene evaluation, in seconds. Re-scoring a population of 20 over
	// chromosomes of length 250 costs 20×250×200ns = 1 ms of simulated
	// scheduler time, ~1 s per 1000-generation batch — the order of
	// magnitude of the paper's Fig. 4 timings, and what scoring every
	// individual from scratch would bill per generation. The
	// incremental engine re-derives most individuals by delta and bills
	// about 3 of those 20 chromosomes per generation at that scale
	// (≈0.15 ms) once the population converges.
	DefaultCostPerGene units.Seconds = 2e-7
)

// Config parametrises the GA scheduler in all three configurations
// (PN, PN-ISLAND, ZO). The zero value of most fields selects the
// paper's defaults; Rebalances is taken literally (0 = pure GA), so use
// DefaultConfig as a starting point when the paper's single-rebalance
// behaviour is wanted. What the paper fixes is not a field: the GA's
// operator rates (internal/ga), the Γs smoothing factor DefaultNu and
// the dynamic-batch cap DefaultMaxBatch.
type Config struct {
	Population  int
	Generations int
	Rebalances  int // §3.5 rebalance attempts per individual per generation
	// Crossover selects the permutation operator; nil is the paper's
	// cycle crossover. ga.PMX / ga.OX support operator ablations.
	Crossover ga.Crossover

	// FixedBatch disables the §3.7 dynamic batch-size rule, always
	// using InitialBatch. The paper's efficiency sweeps (Figs. 5, 7)
	// fix the batch at 200 for all schedulers; Fig. 6 exercises the
	// dynamic rule.
	FixedBatch bool
	// InitialBatch is the batch size used while no idle-time history
	// exists, and the fixed batch size for ZO and FixedBatch mode. It
	// is taken as configured: DefaultMaxBatch does not apply to it.
	InitialBatch int

	// CostPerGene converts fitness-evaluation work into simulated
	// scheduler time: cost = CostPerGene × genes evaluated, where a
	// full evaluation charges the whole chromosome and an incremental
	// one only the queues actually rescanned. It is both the budget
	// model for the §3.4 stop-when-idle condition and the
	// scheduler-busy time charged by the simulator; the two now bill
	// the same ledger (including §3.5 rebalancer work), so a run's
	// ModelledCost cannot overrun its budget by more than the cost of
	// the single generation in flight when the budget ran out.
	CostPerGene units.Seconds

	// Observer, when non-nil, receives the typed scheduling events a
	// GA run emits: the best predicted makespan after every generation
	// (the instrumentation behind the paper's Fig. 3), island-model
	// ring migrations, and §3.4 budget stops. Batch-level events
	// (decisions, dispatches) are emitted by the runtime driving the
	// scheduler, not here.
	Observer observe.Observer
}

// DefaultConfig returns the paper's configuration: every zero-value
// default, plus the single §3.5 rebalance the zero value cannot say.
func DefaultConfig() Config {
	cfg := Config{Rebalances: DefaultRebalances}
	cfg.applyDefaults()
	return cfg
}

// applyDefaults is the one place the paper's defaults are resolved.
// The GA layer is handed these resolved values.
func (c *Config) applyDefaults() {
	if c.Population == 0 {
		c.Population = DefaultPopulation
	}
	if c.Generations == 0 {
		c.Generations = DefaultGenerations
	}
	if c.InitialBatch == 0 {
		c.InitialBatch = DefaultInitialBatch
	}
	if c.CostPerGene == 0 {
		c.CostPerGene = DefaultCostPerGene
	}
}

// cost is the modelled scheduler compute time of evaluating genes
// chromosome positions.
func (c *Config) cost(genes int) units.Seconds {
	return units.Seconds(float64(c.CostPerGene) * float64(genes))
}

// PN is the GA batch scheduler, in the three configurations the
// registry names:
//
//   - PN (NewPN), the paper's scheduler: a dynamic batch-mode GA
//     scheduler for heterogeneous tasks on heterogeneous processors
//     that predicts communication costs from smoothed history, seeds
//     its population with a list-scheduling heuristic, improves
//     individuals with the §3.5 rebalancing heuristic, and can size
//     batches dynamically from the smoothed time-to-first-idle
//     estimate (§3.7).
//   - PN-ISLAND (NewPNIsland): the same beliefs, seeding, batch sizing
//     and §3.4 stopping conditions, but each batch decision evolves
//     IslandConfig.Islands populations concurrently with ring
//     migration — roughly N× the genetic search of PN per wall-clock
//     second of scheduling time on an N-core scheduling processor.
//   - ZO (NewZO), the comparator of §4.1: "The scheduler proposed by
//     Zomaya et al. ... the current state of the art homogeneous GA
//     scheduler and the basis for our scheduler", converted — as the
//     paper did — to heterogeneous processors by expressing task sizes
//     in MFLOPs against per-processor Mflop/s ratings. It differs
//     exactly where the paper says the approaches differ: no
//     communication-cost prediction ("the effect of communication is
//     only considered after tasks or batches of tasks have been
//     scheduled": fitness excludes the Γc term), a fixed batch size, a
//     uniformly random initial population, and no rebalancing.
//
// The three differ in data only; one NextBatchSize and one
// ScheduleBatch serve them all. PN implements sched.Batch and
// sched.BatchSizer. It is stateful (the Γs smoother persists across
// invocations) and not safe for concurrent use; create one per
// simulation or server.
type PN struct {
	name        string
	includeComm bool
	// seed builds the initial population of a sequential run, in the
	// decision's seeding scratch; island runs always list-seed each
	// island from its own stream.
	seed   func(s *seeding, p *Problem, size int, r *rng.RNG) []ga.Chromosome
	island *IslandConfig // non-nil: evolve on an island ring

	cfg Config
	r   *rng.RNG
	sp  *smoothing.Smoother
}

// newScheduler is the paper's configuration under the given name; the
// other two constructors change its data.
func newScheduler(name string, cfg Config, r *rng.RNG) *PN {
	cfg.applyDefaults()
	return &PN{name: name, includeComm: true, seed: (*seeding).list, cfg: cfg, r: r, sp: smoothing.New(DefaultNu)}
}

// NewPN returns a PN scheduler with the given configuration; zero
// Config fields take the paper's defaults (note Rebalances: the zero
// value means pure GA — use DefaultConfig() for the paper's single
// rebalance).
func NewPN(cfg Config, r *rng.RNG) *PN { return newScheduler("PN", cfg, r) }

// NewPNIsland returns an island-model PN scheduler; zero cfg fields
// take the paper's defaults (as NewPN) and zero icfg fields the island
// defaults (NumCPU islands, interval 25, 2 migrants).
func NewPNIsland(cfg Config, icfg IslandConfig, r *rng.RNG) *PN {
	pn := newScheduler("PNI", cfg, r)
	pn.island = &icfg
	return pn
}

// NewZO returns a ZO scheduler. The Rebalances and FixedBatch fields
// of cfg are ignored (ZO never rebalances and never sizes batches
// dynamically); InitialBatch is its fixed batch size.
func NewZO(cfg Config, r *rng.RNG) *PN {
	cfg.Rebalances = 0
	cfg.FixedBatch = true
	zo := newScheduler("ZO", cfg, r)
	zo.includeComm = false
	zo.seed = func(_ *seeding, p *Problem, size int, r *rng.RNG) []ga.Chromosome {
		return RandomPopulation(p, size, r)
	}
	return zo
}

// Name implements sched.Scheduler.
func (pn *PN) Name() string { return pn.name }

// NextBatchSize implements sched.BatchSizer. A fixed batch
// (Config.FixedBatch, and any batch before idle-time history exists)
// is InitialBatch exactly as configured. The dynamic rule is §3.7's
// H_{p+1} = ⌊√(Γs_p + 1)⌋ — batches large enough to keep the
// scheduling processor fully used, small enough that no processor goes
// idle while the GA runs — and DefaultMaxBatch caps that rule only.
func (pn *PN) NextBatchSize(queued int, s sched.State) int {
	h := pn.cfg.InitialBatch
	if fi := s.TimeUntilFirstIdle(); !pn.cfg.FixedBatch && !fi.IsInf() {
		gs := pn.sp.Observe(float64(fi))
		h = min(int(math.Floor(math.Sqrt(gs+1))), DefaultMaxBatch)
	}
	return max(min(h, queued), 1)
}

// ScheduleBatch implements sched.Batch: snapshot the system, evolve
// under the §3.4 stopping conditions — one seeded population, or one
// per island — and return the best schedule plus the modelled scheduler
// compute time.
//
// A sequential decision takes one workspace from the package-level pool
// for its whole length — the list-seeded population is laid out in it,
// and Evolve's engine, evaluator and rebalancer run in it — and puts it
// back on return. The pool, not a field of PN, holds it because the
// live dispatcher builds a scheduler per job, and a workspace per
// scheduler would never be reused there. What a decision still
// allocates is the Problem snapshot and its tables, the
// best chromosome and the Assignment; ZO's random seeds and the island
// variant's lanes and engines are not pooled.
func (pn *PN) ScheduleBatch(batch []task.Task, s sched.State) (sched.Assignment, units.Seconds) {
	if pn.island != nil {
		p := NewProblem(batch, s, pn.includeComm)
		st := EvolveIsland(context.Background(), p, pn.cfg, *pn.island, s.TimeUntilFirstIdle(), pn.r)
		return p.Assignment(st.Result.Best), st.ModelledCost
	}
	w := workspaces.Get().(*workspace)
	defer workspaces.Put(w)
	return pn.scheduleIn(w, batch, s)
}

// scheduleIn is a sequential ScheduleBatch in w.
func (pn *PN) scheduleIn(w *workspace, batch []task.Task, s sched.State) (sched.Assignment, units.Seconds) {
	p := NewProblem(batch, s, pn.includeComm)
	initial := pn.seed(&w.seeds, p, pn.cfg.Population, pn.r)
	st := w.evolve(p, pn.cfg, initial, s.TimeUntilFirstIdle(), pn.r)
	return p.Assignment(st.Result.Best), st.ModelledCost
}
