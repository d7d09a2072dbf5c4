package core

import (
	"context"
	"testing"

	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// Island-vs-sequential benchmarks at paper scale: one batch decision
// of 200 tasks on 50 heterogeneous processors (the §4.3 batch on the
// §4.2 cluster). Every variant spends the same total generation budget
// — N islands run budget/N generations each, concurrently — so ns/op
// is the wall-clock cost of an equal amount of genetic search and the
// makespan-s metric is the schedule quality it bought:
//
//	go test ./internal/core -run=NONE -bench=BenchmarkIslandEvolve
//
// On a box with GOMAXPROCS ≥ islands the island rows show near-linear
// wall-clock speedup at equal-or-better makespans (migration re-links
// the shorter per-island searches). On fewer cores the islands
// time-share, so the speedup degrades toward parity — what remains
// visible there is the coordination overhead and the quality side of
// the trade.
const (
	islandBenchTasks = 200
	islandBenchProcs = 50
	islandBenchGens  = 800
)

func benchIslandEvolve(b *testing.B, islands int) {
	b.Helper()
	p := benchProblem(islandBenchTasks, islandBenchProcs, 4242)
	cfg := DefaultConfig()
	cfg.Generations = islandBenchGens / islands
	icfg := IslandConfig{Islands: islands}
	cycleSeeds(b, "makespan-s", "fitness", func(r *rng.RNG) (float64, float64) {
		var st EvolveStats
		if islands == 1 {
			st = Evolve(p, cfg, ListPopulation(p, cfg.Population, r), units.Inf(), r)
		} else {
			st = EvolveIsland(context.Background(), p, cfg, icfg, units.Inf(), r)
		}
		return float64(st.BestMakespan), st.Result.BestFitness
	})
}

// BenchmarkIslandEvolveSequential is the paper's sequential engine at
// the full generation budget.
func BenchmarkIslandEvolveSequential(b *testing.B) { benchIslandEvolve(b, 1) }

// BenchmarkIslandEvolve2 splits the budget across 2 islands.
func BenchmarkIslandEvolve2(b *testing.B) { benchIslandEvolve(b, 2) }

// BenchmarkIslandEvolve4 splits the budget across 4 islands.
func BenchmarkIslandEvolve4(b *testing.B) { benchIslandEvolve(b, 4) }

// BenchmarkIslandEvolve8 splits the budget across 8 islands.
func BenchmarkIslandEvolve8(b *testing.B) { benchIslandEvolve(b, 8) }
