package island

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
)

// sortedness rewards permutations close to identity order, as in the
// ga package's own tests: fitness = adjacent in-order pairs + 1.
type sortedness struct{}

func (sortedness) Fitness(c ga.Chromosome) float64 {
	score := 1.0
	for i := 1; i < len(c); i++ {
		if c[i] > c[i-1] {
			score++
		}
	}
	return score
}

func randomPopulation(n, size int, r *rng.RNG) []ga.Chromosome {
	pop := make([]ga.Chromosome, size)
	for i := range pop {
		pop[i] = make(ga.Chromosome, n)
		for j := range pop[i] {
			pop[i][j] = j
		}
		r.ShuffleInts(pop[i])
	}
	return pop
}

// uniformSetup gives every island the same GA config and an
// independent random initial population drawn from its own stream.
func uniformSetup(cfg ga.Config, symbols int) func(int, *rng.RNG) Setup {
	return func(_ int, r *rng.RNG) Setup {
		size := cfg.PopulationSize
		if size == 0 {
			size = 20
		}
		return Setup{GA: cfg, Eval: sortedness{}, Initial: randomPopulation(symbols, size, r)}
	}
}

// TestRunDeterministicPerN is the seeded-determinism contract: same
// seed and same island count produce byte-identical best individuals,
// however the goroutines interleave. OnRound sees every barrier.
func TestRunDeterministicPerN(t *testing.T) {
	rounds, gens := 0, 0
	run := func() Result {
		cfg := Config{Islands: 4, MigrationInterval: 5, Migrants: 2,
			OnRound: func(round, generations int) { rounds, gens = round, generations }}
		gaCfg := ga.Config{PopulationSize: 10, MaxGenerations: 60}
		return Run(context.Background(), cfg, uniformSetup(gaCfg, 18), rng.New(99))
	}
	a, b := run(), run()
	if rounds != b.Rounds || gens != b.Generations {
		t.Errorf("OnRound last saw round %d at generation %d, result says %d rounds and %d generations",
			rounds, gens, b.Rounds, b.Generations)
	}
	if !slices.Equal(a.Best, b.Best) {
		t.Errorf("best individuals diverged across identically seeded runs:\n%v\n%v", a.Best, b.Best)
	}
	if a.BestFitness != b.BestFitness || a.BestIsland != b.BestIsland ||
		a.Generations != b.Generations || a.Evaluations != b.Evaluations ||
		a.Rounds != b.Rounds || a.Migrated != b.Migrated || a.Reason != b.Reason {
		t.Errorf("run summaries diverged: %+v vs %+v", a, b)
	}
	if a.Reason != ga.StopMaxGenerations {
		t.Errorf("reason = %v, want max-generations", a.Reason)
	}
	if err := a.Best.ValidatePermutation(); err != nil {
		t.Errorf("best individual invalid: %v", err)
	}
}

// TestSingleIslandMatchesSequential: with one island there is no
// migration and the run must reproduce ga.Run on the island's stream
// exactly.
func TestSingleIslandMatchesSequential(t *testing.T) {
	gaCfg := ga.Config{PopulationSize: 8, MaxGenerations: 40}
	got := Run(context.Background(), Config{Islands: 1}, uniformSetup(gaCfg, 12), rng.New(7))

	r := rng.New(7).Stream(1) // island 0's stream
	want := ga.Run(gaCfg, sortedness{}, randomPopulation(12, 8, r), r)

	if !slices.Equal(got.Best, want.Best) || got.BestFitness != want.BestFitness {
		t.Errorf("single island diverged from sequential run: %v vs %v", got.BestFitness, want.BestFitness)
	}
	if got.Generations != want.Generations || got.Evaluations != want.Evaluations {
		t.Errorf("counters diverged: gens %d vs %d, evals %d vs %d",
			got.Generations, want.Generations, got.Evaluations, want.Evaluations)
	}
	if got.Migrated != 0 {
		t.Errorf("single island migrated %d individuals", got.Migrated)
	}
}

// TestMigrationSpreadsElites plants a perfect individual in island 0
// only and checks ring migration carries it to every island — and that
// without migration it stays put.
func TestMigrationSpreadsElites(t *testing.T) {
	const symbols = 30
	identity := make(ga.Chromosome, symbols)
	for i := range identity {
		identity[i] = i
	}
	perfect := sortedness{}.Fitness(identity)

	setup := func(planted bool) func(int, *rng.RNG) Setup {
		return func(i int, r *rng.RNG) Setup {
			pop := randomPopulation(symbols, 8, r)
			if planted && i == 0 {
				pop[0] = identity.Clone()
			}
			return Setup{
				GA:      ga.Config{PopulationSize: 8, MaxGenerations: 8},
				Eval:    sortedness{},
				Initial: pop,
			}
		}
	}

	cfg := Config{Islands: 4, MigrationInterval: 1, Migrants: 1}
	res := Run(context.Background(), cfg, setup(true), rng.New(3))
	for i, ir := range res.Islands {
		if ir.BestFitness != perfect {
			t.Errorf("island %d best fitness %v, want %v (elite should have migrated in)", i, ir.BestFitness, perfect)
		}
	}
	if res.Migrated == 0 {
		t.Error("no individuals migrated")
	}

	// Contrast: migration disabled (Migrants < 0) — 8 generations of
	// micro-GA cannot sort 30 symbols, so islands 1..3 stay imperfect.
	cfg.Migrants = -1
	res = Run(context.Background(), cfg, setup(true), rng.New(3))
	if res.Migrated != 0 {
		t.Fatalf("Migrants<0 still migrated %d individuals", res.Migrated)
	}
	if res.Islands[0].BestFitness != perfect {
		t.Errorf("island 0 lost its planted elite: %v", res.Islands[0].BestFitness)
	}
	for i := 1; i < 4; i++ {
		if res.Islands[i].BestFitness == perfect {
			t.Errorf("island %d reached perfect fitness without migration — contrast scenario too easy", i)
		}
	}
}

// slowEval burns a little real time per evaluation so cancellation
// tests have a mid-flight window to hit.
type slowEval struct{ d time.Duration }

func (s slowEval) Fitness(c ga.Chromosome) float64 {
	time.Sleep(s.d)
	return sortedness{}.Fitness(c)
}

// TestContextCancelStopsPromptly cancels mid-run (including
// mid-migration rounds) and checks Run returns quickly without leaking
// the island goroutines. Run under -race this also exercises the
// coordinator/island synchronisation.
func TestContextCancelStopsPromptly(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	go func() {
		cfg := Config{Islands: 4, MigrationInterval: 2, Migrants: 1}
		setup := func(_ int, r *rng.RNG) Setup {
			return Setup{
				GA:      ga.Config{PopulationSize: 6, MaxGenerations: 1_000_000},
				Eval:    slowEval{d: 50 * time.Microsecond},
				Initial: randomPopulation(10, 6, r),
			}
		}
		done <- Run(ctx, cfg, setup, rng.New(5))
	}()

	time.Sleep(20 * time.Millisecond) // let a few rounds and migrations happen
	cancel()
	select {
	case res := <-done:
		if res.Reason != ga.StopCallback {
			t.Errorf("reason = %v, want callback", res.Reason)
		}
		if res.Generations >= 1_000_000 {
			t.Error("run was not aborted")
		}
		if res.Best == nil {
			t.Error("aborted run returned no best individual")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}

	// All island goroutines are barrier-joined before Run returns; give
	// the runtime a moment and check nothing leaked.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestDefaultsIslandCount: Islands <= 0 defaults to NumCPU.
func TestDefaultsIslandCount(t *testing.T) {
	gaCfg := ga.Config{PopulationSize: 6, MaxGenerations: 5}
	res := Run(context.Background(), Config{}, uniformSetup(gaCfg, 8), rng.New(10))
	if len(res.Islands) != runtime.NumCPU() {
		t.Errorf("defaulted to %d islands, want NumCPU = %d", len(res.Islands), runtime.NumCPU())
	}
}
