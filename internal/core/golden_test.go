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
		uint64(st.Result.Evaluations), uint64(st.GenesEvaluated))
	return h.Sum64()
}

// scheduleHash folds only what a run decides — the best chromosome, its
// fitness and the generations run — so a change to how much work the
// evaluator does can be told apart from a change to the schedule.
func scheduleHash(st EvolveStats) uint64 {
	h := fnv.New64a()
	hashChromosome(h, st.Result.Best)
	hashWords(h, math.Float64bits(st.Result.BestFitness), uint64(st.Result.Generations))
	return h.Sum64()
}

// goldenSchedule was recorded at the commit before crossover children
// were derived from their parent's cached queues. It must stay
// byte-identical for every case: provenance changes the work billed,
// never the schedule. goldenEvolve's */incremental/* entries fold in
// that work, so they were re-recorded at the same change; its */plain/*
// entries were not.
var goldenSchedule = map[string]uint64{
	"CX/plain/evolve/seed1":        0xb6145c86dddf5fbf,
	"CX/plain/evolve/seed2":        0x1d23e853d02fc1a8,
	"CX/plain/island/seed1":        0xd74eb28c9ff61a80,
	"CX/plain/island/seed2":        0x5a0a14d161201491,
	"CX/incremental/evolve/seed1":  0x6e80769c9a3902b9,
	"CX/incremental/evolve/seed2":  0x7e72c62224b3d97e,
	"CX/incremental/island/seed1":  0x3274986090d748a4,
	"CX/incremental/island/seed2":  0x66f78b45b57ada01,
	"PMX/plain/evolve/seed1":       0x4ece99c49ea85693,
	"PMX/plain/evolve/seed2":       0x214e4a9108a545c0,
	"PMX/plain/island/seed1":       0xdb099639cca30d66,
	"PMX/plain/island/seed2":       0x78286c82a802a411,
	"PMX/incremental/evolve/seed1": 0x93a235ad5e126d4e,
	"PMX/incremental/evolve/seed2": 0xfcab2dd1395f42f7,
	"PMX/incremental/island/seed1": 0x7630aac3f41bd7f6,
	"PMX/incremental/island/seed2": 0xd70a6f0d4f49e543,
	"OX/plain/evolve/seed1":        0x5cea393ea5aa6dff,
	"OX/plain/evolve/seed2":        0x5aeb2c02d0f72699,
	"OX/plain/island/seed1":        0xc53b9866d51f5c49,
	"OX/plain/island/seed2":        0x0c288fdc2fafe22d,
	"OX/incremental/evolve/seed1":  0x9a2ba5e4aee259cd,
	"OX/incremental/evolve/seed2":  0x820adb7fb3094326,
	"OX/incremental/island/seed1":  0x0553f4e4548efd31,
	"OX/incremental/island/seed2":  0x12162c1c999d2ba8,
}

var goldenEvolve = map[string]uint64{
	"CX/plain/evolve/seed1":        0x7c52dcc3ad6bfeb7,
	"CX/plain/evolve/seed2":        0x6587b26da5ca46ea,
	"CX/plain/island/seed1":        0xf06a0cf93d34d1da,
	"CX/plain/island/seed2":        0xbaa7aa1913538f3b,
	"CX/incremental/evolve/seed1":  0x0de5a965d2835982,
	"CX/incremental/evolve/seed2":  0xdb03ff21702f3018,
	"CX/incremental/island/seed1":  0xa661c299fde096b7,
	"CX/incremental/island/seed2":  0xc2346aecb9a023ff,
	"PMX/plain/evolve/seed1":       0x656c9438defac8ab,
	"PMX/plain/evolve/seed2":       0xfb44c88011a908d2,
	"PMX/plain/island/seed1":       0x35ae6cd486cab980,
	"PMX/plain/island/seed2":       0x908910c9c65d85bb,
	"PMX/incremental/evolve/seed1": 0x895b3fcb5c0a6d9c,
	"PMX/incremental/evolve/seed2": 0x52ef7f0df0953bbd,
	"PMX/incremental/island/seed1": 0x2b7c86394406f3e9,
	"PMX/incremental/island/seed2": 0x8a3df9733edeed52,
	"OX/plain/evolve/seed1":        0xde3e50ace81b0ef7,
	"OX/plain/evolve/seed2":        0x1963bc7be24beb6f,
	"OX/plain/island/seed1":        0x474d042a174cec2f,
	"OX/plain/island/seed2":        0x6e01cd60656e81cf,
	"OX/incremental/evolve/seed1":  0xd8fc2ddb839a1567,
	"OX/incremental/evolve/seed2":  0xd206fdcdb1b4ff3f,
	"OX/incremental/island/seed1":  0x74eca5737c34451c,
	"OX/incremental/island/seed2":  0xdde8c878bb1eea02,
}

// TestGoldenEvolve: {CX, PMX, OX} × {plain evaluator (the naive lane of
// oracle_test.go), incremental evaluator + one §3.5 rebalance} ×
// {Evolve, EvolveIsland with two islands} at two seeds reproduce the
// recorded runs bit for bit.
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
						cfg.Rebalances = 0
					}
					evolve, evolveIsland := evolvers(evalName == "plain")
					r := rng.New(seed + 40)
					var st EvolveStats
					if runner == "island" {
						st = evolveIsland(context.Background(), p, cfg,
							IslandConfig{Islands: 2, MigrationInterval: 5}, units.Inf(), r)
					} else {
						st = evolve(p, cfg, ListPopulation(p, cfg.Population, r), units.Inf(), r)
					}
					key := fmt.Sprintf("%s/%s/%s/seed%d", cx.name, evalName, runner, seed)
					want, ok := goldenEvolve[key]
					wantSched, okSched := goldenSchedule[key]
					if !ok || !okSched {
						t.Fatalf("%s: no golden entry", key)
					}
					seen++
					if got := goldenHash(st); got != want {
						t.Errorf("%q: %#x, // recorded %#x", key, got, want)
					}
					if got := scheduleHash(st); got != wantSched {
						t.Errorf("schedule %q: %#x, // recorded %#x", key, got, wantSched)
					}
				}
			}
		}
	}
	if seen != len(goldenEvolve) || seen != len(goldenSchedule) {
		t.Errorf("ran %d cases, tables hold %d and %d", seen, len(goldenEvolve), len(goldenSchedule))
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
