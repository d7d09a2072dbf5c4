package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// The tables below were recorded at the commit before the GA engine
// took ownership of its memory (PR 20) and must never be regenerated
// to make a change pass: they pin the RNG draw order, the slot protocol
// and every produced chromosome across a change of memory layout.
// TestIncrementalMatchesNaiveEvolve cannot do that — it compares two
// paths that share the engine, so a drift in draw order passes it.

// hashWords folds 64-bit words into an FNV-64.
func hashWords(h hash.Hash64, words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

func hashChromosome(h hash.Hash64, c ga.Chromosome) {
	for _, sym := range c {
		hashWords(h, uint64(int64(sym)))
	}
}

// goldenHash folds everything a run's result exposes into one FNV-64.
func goldenHash(st EvolveStats) uint64 {
	h := fnv.New64a()
	hashChromosome(h, st.Result.Best)
	hashWords(h, math.Float64bits(st.Result.BestFitness), uint64(st.Result.Generations),
		uint64(st.Result.Evaluations), uint64(st.Result.GenesEvaluated))
	return h.Sum64()
}

var goldenEvolve = map[string]uint64{
	"CX/plain/evolve/seed1":        0x7c52dcc3ad6bfeb7,
	"CX/plain/evolve/seed2":        0x6587b26da5ca46ea,
	"CX/plain/island/seed1":        0xf06a0cf93d34d1da,
	"CX/plain/island/seed2":        0xbaa7aa1913538f3b,
	"CX/incremental/evolve/seed1":  0xd955dfc971de9d,
	"CX/incremental/evolve/seed2":  0xde5caecc9e7e1396,
	"CX/incremental/island/seed1":  0x9ce8896ac5e9f188,
	"CX/incremental/island/seed2":  0xed87545fe19b29a7,
	"PMX/plain/evolve/seed1":       0x656c9438defac8ab,
	"PMX/plain/evolve/seed2":       0xfb44c88011a908d2,
	"PMX/plain/island/seed1":       0x35ae6cd486cab980,
	"PMX/plain/island/seed2":       0x908910c9c65d85bb,
	"PMX/incremental/evolve/seed1": 0x9f2eccc093777e7d,
	"PMX/incremental/evolve/seed2": 0x586c4fb707db4980,
	"PMX/incremental/island/seed1": 0xbdbbf8b568429ebf,
	"PMX/incremental/island/seed2": 0xfb84e29cb9642353,
	"OX/plain/evolve/seed1":        0xde3e50ace81b0ef7,
	"OX/plain/evolve/seed2":        0x1963bc7be24beb6f,
	"OX/plain/island/seed1":        0x474d042a174cec2f,
	"OX/plain/island/seed2":        0x6e01cd60656e81cf,
	"OX/incremental/evolve/seed1":  0x751b011f7e4eac8e,
	"OX/incremental/evolve/seed2":  0xf5864d486f7386a9,
	"OX/incremental/island/seed1":  0x47875420281e3992,
	"OX/incremental/island/seed2":  0x39aea22ffc167019,
}

// TestGoldenEvolve: {CX, PMX, OX} × {plain evaluator, incremental
// evaluator + one §3.5 rebalance} × {Evolve, EvolveIsland with two
// islands} at two seeds reproduce the recorded runs bit for bit.
func TestGoldenEvolve(t *testing.T) {
	crossovers := []struct {
		name string
		op   ga.Crossover
	}{{"CX", ga.CX}, {"PMX", ga.PMX}, {"OX", ga.OX}}
	seen := 0
	for _, cx := range crossovers {
		for _, evalName := range []string{"plain", "incremental"} {
			for _, runner := range []string{"evolve", "island"} {
				for seed := uint64(1); seed <= 2; seed++ {
					p := randomProblem(seed + 3)
					cfg := DefaultConfig()
					cfg.Generations = 60
					cfg.Crossover = cx.op
					cfg.Rebalances = 1
					if evalName == "plain" {
						cfg.NaiveEvaluation = true
						cfg.Rebalances = 0
					}
					r := rng.New(seed + 40)
					var st EvolveStats
					if runner == "island" {
						st = EvolveIsland(context.Background(), p, cfg,
							IslandConfig{Islands: 2, MigrationInterval: 5}, units.Inf(), r)
					} else {
						st = Evolve(p, cfg, ListPopulation(p, cfg.Population, r), units.Inf(), r)
					}
					key := fmt.Sprintf("%s/%s/%s/seed%d", cx.name, evalName, runner, seed)
					want, ok := goldenEvolve[key]
					if !ok {
						t.Fatalf("%s: no golden entry", key)
					}
					seen++
					if got := goldenHash(st); got != want {
						t.Errorf("%q: %#x, // recorded %#x", key, got, want)
					}
				}
			}
		}
	}
	if seen != len(goldenEvolve) {
		t.Errorf("ran %d cases, table holds %d", seen, len(goldenEvolve))
	}
}

var goldenListPopulation = map[string]uint64{
	"h200_m50/seed1": 0x6d01bc93a2c8f205,
	"h200_m50/seed2": 0x5d8b9a6cf9d85d15,
	"random/seed1":   0x39343f5038daf1e5,
	"random/seed2":   0xd14e7579c920c745,
}

// TestGoldenListPopulation pins the §3.3 seeding heuristic: the same
// RNG draws in the same order place every task on the same processor,
// whatever the layout pass that writes the genes.
func TestGoldenListPopulation(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		for name, p := range map[string]*Problem{
			"h200_m50": benchProblem(evolveBenchTasks, evolveBenchProcs, 4242),
			"random":   randomProblem(seed + 7),
		} {
			h := fnv.New64a()
			for _, c := range ListPopulation(p, DefaultPopulation, rng.New(seed)) {
				hashChromosome(h, c)
			}
			key := fmt.Sprintf("%s/seed%d", name, seed)
			if got, want := h.Sum64(), goldenListPopulation[key]; got != want {
				t.Errorf("%q: %#x, // recorded %#x", key, got, want)
			}
		}
	}
}
