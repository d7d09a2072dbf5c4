package pnsched

import (
	"fmt"
	"strings"

	"pnsched/internal/core"
	"pnsched/internal/observe"
	"pnsched/internal/rng"
)

// Spec is the single construction surface for every scheduler in the
// repo: a registered scheduler name plus its configuration. It is what
// pnsched.New consumes, what the functional options build, and what
// the scheduler block of a scenario JSON file unmarshals into — the
// JSON tags below are that file format, so a Spec round-trips through
// encoding/json unchanged.
//
// The zero value of every field selects the paper's default for the
// named scheduler. The island fields apply only to PN-ISLAND —
// Validate rejects them on any other scheduler, so a typo'd scenario
// file fails loudly instead of silently configuring nothing. The GA
// fields (Generations, Population, …) are deliberately NOT rejected
// on heuristic schedulers: comparison sweeps (pnsim -sched all, the
// experiments harness) configure one Spec per run and apply it to
// every scheduler, GA and heuristic alike; heuristics simply ignore
// them (Batch still caps the batch heuristics' batch size).
type Spec struct {
	// Name selects a registered scheduler, case-insensitively:
	// EF, LL, RR, MM, MX, ZO, PN, PN-ISLAND, MET, OLB, KPB, SUF (plus
	// anything added via Register). Names() lists what is available.
	Name string `json:"name"`

	// GA settings (PN, ZO, PN-ISLAND). Zero selects the paper default.
	Generations int `json:"generations,omitempty"`
	Population  int `json:"population,omitempty"`
	// Rebalances is the §3.5 rebalance count per individual per
	// generation: 0 selects the paper's single rebalance, negative
	// disables rebalancing outright (the pure-GA ablation).
	Rebalances int `json:"rebalances,omitempty"`
	// Batch is the initial (and, without DynamicBatch, fixed) batch
	// size; 0 selects the paper's 200. For heuristic batch schedulers
	// (MM, MX, SUF) it is the fixed batch cap.
	Batch int `json:"batch,omitempty"`
	// DynamicBatch enables the §3.7 dynamic batch-size rule.
	DynamicBatch bool `json:"dynamic_batch,omitempty"`
	// K is the KPB percentage, 0..100 (0 selects 20). Validate refuses
	// it on any other scheduler.
	K int `json:"k,omitempty"`

	// Island-model settings (PN-ISLAND only). Islands is a pointer so
	// an explicit invalid value ("islands": 0) is distinguishable from
	// the field being omitted (nil → one island per CPU).
	Islands           *int `json:"islands,omitempty"`
	MigrationInterval int  `json:"migration_interval,omitempty"`
	Migrants          int  `json:"migrants,omitempty"`

	// Seed seeds the scheduler's private random stream when no RNG
	// was attached with WithRNG. Scenario files normally leave it 0 —
	// the scenario loader attaches a stream derived from the
	// scenario's own seed — but a non-zero value here wins.
	Seed uint64 `json:"seed,omitempty"`

	// Runtime-only attachments, set via WithRNG / WithObserver; never
	// serialized.
	rng      *rng.RNG
	observer observe.Observer
}

// Option mutates a Spec under construction; see the With* functions.
type Option func(*Spec)

// NewSpec builds and validates a Spec for a registered scheduler.
func NewSpec(name string, opts ...Option) (Spec, error) {
	s := Spec{Name: name}
	for _, o := range opts {
		o(&s)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// MustSpec is NewSpec panicking on error — for tests and examples
// where the spec is a literal.
func MustSpec(name string, opts ...Option) Spec {
	s, err := NewSpec(name, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// With returns a copy of the spec with the options applied.
func (s Spec) With(opts ...Option) Spec {
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithGenerations sets the GA generation cap (paper: 1000).
func WithGenerations(n int) Option { return func(s *Spec) { s.Generations = n } }

// WithPopulation sets the micro-GA population size (paper: 20).
func WithPopulation(n int) Option { return func(s *Spec) { s.Population = n } }

// WithRebalances sets the §3.5 rebalance count per individual per
// generation; negative disables rebalancing (0 keeps the paper's 1).
func WithRebalances(n int) Option { return func(s *Spec) { s.Rebalances = n } }

// WithBatch sets the initial / fixed batch size (paper: 200). A fixed
// batch is not capped: the scheduler takes batches of exactly n while
// that many tasks are queued. Only the §3.7 dynamic rule
// (WithDynamicBatch) is bounded, to at most 1000 tasks, and n is then
// the size used until idle-time history exists.
func WithBatch(n int) Option { return func(s *Spec) { s.Batch = n } }

// WithDynamicBatch enables or disables the §3.7 dynamic batch sizing.
func WithDynamicBatch(on bool) Option { return func(s *Spec) { s.DynamicBatch = on } }

// WithIslands sets the island count for PN-ISLAND (without it, one
// island per CPU).
func WithIslands(n int) Option { return func(s *Spec) { s.Islands = &n } }

// WithMigrationInterval sets the generations between island ring
// migrations.
func WithMigrationInterval(n int) Option { return func(s *Spec) { s.MigrationInterval = n } }

// WithMigrants sets the elites exchanged per island migration.
func WithMigrants(n int) Option { return func(s *Spec) { s.Migrants = n } }

// WithSeed seeds the scheduler's random stream.
func WithSeed(seed uint64) Option { return func(s *Spec) { s.Seed = seed } }

// WithRNG attaches an explicit random stream, overriding Seed —
// used by callers that derive all their randomness from one base
// stream (the scenario loader, the CLIs, experiments).
func WithRNG(r *RNG) Option { return func(s *Spec) { s.rng = r } }

// WithObserver attaches an Observer to the scheduler: GA-level events
// (generation best-makespan, island migrations, §3.4 budget stops)
// flow from the scheduler itself; Run additionally points the runtime
// at the same observer for batch decisions and dispatches.
func WithObserver(o Observer) Option { return func(s *Spec) { s.observer = o } }

// Validate checks the spec against the registry and the per-scheduler
// field rules. It is called by New and by the scenario loader, so
// every construction path shares one set of rules.
func (s *Spec) Validate() error {
	if strings.TrimSpace(s.Name) == "" {
		return fmt.Errorf("pnsched: scheduler name required (registered: %s)", strings.Join(Names(), ", "))
	}
	canonical, ok := Canonical(s.Name)
	if !ok {
		return fmt.Errorf("pnsched: unknown scheduler %q (registered: %s)", s.Name, strings.Join(Names(), ", "))
	}
	if s.Generations < 0 {
		return fmt.Errorf("pnsched: negative generations %d", s.Generations)
	}
	if s.Population < 0 {
		return fmt.Errorf("pnsched: negative population %d", s.Population)
	}
	if s.Batch < 0 {
		return fmt.Errorf("pnsched: negative batch %d", s.Batch)
	}
	if s.K != 0 && canonical != "KPB" {
		return fmt.Errorf("pnsched: k only applies to scheduler %q, not %q", "KPB", s.Name)
	}
	if s.K < 0 || s.K > 100 {
		return fmt.Errorf("pnsched: KPB k %d must be within 0..100 (0 selects 20)", s.K)
	}
	return s.validateIsland(canonical)
}

// validateIsland checks the PN-ISLAND fields (and rejects them on any
// other scheduler, where they would silently do nothing).
func (s *Spec) validateIsland(canonical string) error {
	if canonical != islandName {
		if s.Islands != nil || s.MigrationInterval != 0 || s.Migrants != 0 {
			return fmt.Errorf("pnsched: islands/migration_interval/migrants only apply to scheduler %q, not %q", islandName, s.Name)
		}
		return nil
	}
	if s.Islands != nil && *s.Islands < 1 {
		return fmt.Errorf("pnsched: %s needs islands >= 1 (got %d); omit the field for one island per CPU", islandName, *s.Islands)
	}
	if s.MigrationInterval < 0 {
		return fmt.Errorf("pnsched: %s migration_interval %d must be >= 0", islandName, s.MigrationInterval)
	}
	population := s.Population
	if population <= 0 {
		population = core.DefaultPopulation
	}
	if s.Migrants >= population {
		return fmt.Errorf("pnsched: %s migrants %d must be smaller than the population %d", islandName, s.Migrants, population)
	}
	return nil
}

// gaConfig lowers the Spec onto the GA scheduler configuration. A zero
// field stays zero: core resolves it to the paper's default when the
// scheduler is built. Rebalances is the one field whose zero the two
// layers read differently — here the paper's single rebalance, in core
// the pure GA.
func (s Spec) gaConfig() core.Config {
	cfg := core.Config{
		Generations:  s.Generations,
		Population:   s.Population,
		Rebalances:   s.Rebalances,
		InitialBatch: s.Batch,
		FixedBatch:   !s.DynamicBatch,
		Observer:     s.observer,
	}
	switch {
	case s.Rebalances == 0:
		cfg.Rebalances = core.DefaultRebalances
	case s.Rebalances < 0:
		cfg.Rebalances = 0
	}
	return cfg
}

// islandConfig lowers the island-model fields.
func (s Spec) islandConfig() core.IslandConfig {
	icfg := core.IslandConfig{
		MigrationInterval: s.MigrationInterval,
		Migrants:          s.Migrants,
	}
	if s.Islands != nil {
		icfg.Islands = *s.Islands
	}
	return icfg
}
