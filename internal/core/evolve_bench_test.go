package core

import (
	"testing"

	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// Naive-vs-incremental evaluation benchmarks at paper scale: one batch
// decision of 200 tasks on 50 heterogeneous processors (the §4.3 batch
// on the §4.2 cluster) with the paper's micro-GA (population 20, one
// §3.5 rebalance per individual per generation):
//
//	go test ./internal/core -run=NONE -bench=BenchmarkEvolve
//
// Both variants return byte-identical schedules for the same seed (the
// equivalence tests assert it); the rows differ in ns/op — the real
// cost of a batch decision — and in full-evals/gen, the evaluated
// genes per generation expressed in full-chromosome equivalents. The
// naive engine re-scores all 20 individuals every generation and the
// rebalancer re-scores every candidate move, ~59 full evaluations per
// generation; the incremental engine re-derives crossover children,
// mutants and rebalance moves by delta from a scored individual's
// queues and pays full price only for an individual whose delimiters
// moved, ~3 full evaluations per generation.
//
// BenchmarkEvolveIncrementalLive is the same engine at the shape the
// live dispatcher runs a PN job in: 200 tasks on 8 workers for 300
// generations. With few queues each is long, so the rebalancer's
// segment rescans weigh more and crossover less than at M=50.
//
// Every run cycles through the same evolveBenchSeeds seeds
// (cycleSeeds).
const (
	evolveBenchSeeds = 16

	evolveBenchTasks = 200
	evolveBenchProcs = 50
	evolveBenchGens  = 200

	liveBenchProcs = 8
	liveBenchGens  = 300
)

func benchEvolveEngine(b *testing.B, naive bool) {
	benchEvolveShape(b, naive, evolveBenchTasks, evolveBenchProcs, evolveBenchGens)
}

func benchEvolveShape(b *testing.B, naive bool, tasks, procs, gens int) {
	b.Helper()
	p := benchProblem(tasks, procs, 4242)
	cfg := DefaultConfig()
	cfg.Generations = gens
	evolve, _ := evolvers(naive)
	chrom := ChromosomeLen(tasks, procs)
	cycleSeeds(b, "full-evals/gen", "makespan-s", func(r *rng.RNG) (float64, float64) {
		st := evolve(p, cfg, ListPopulation(p, cfg.Population, r), units.Inf(), r)
		return float64(st.GenesEvaluated) / float64(st.Result.Generations) / float64(chrom), float64(st.BestMakespan)
	})
}

// cycleSeeds is the timed loop of the evolve benchmarks: iteration i
// runs op from seed i mod evolveBenchSeeds, and each of the two figures
// op returns is reported as its mean over the seeds run, so every run
// of b.N ≥ evolveBenchSeeds measures the same inputs and reports the
// same figures.
func cycleSeeds(b *testing.B, unit1, unit2 string, op func(r *rng.RNG) (float64, float64)) {
	b.Helper()
	var fig1, fig2 [evolveBenchSeeds]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := i % evolveBenchSeeds
		fig1[seed], fig2[seed] = op(rng.New(uint64(seed)))
	}
	seen := min(b.N, evolveBenchSeeds)
	var sum1, sum2 float64
	for k := range seen {
		sum1 += fig1[k]
		sum2 += fig2[k]
	}
	b.ReportMetric(sum1/float64(seen), unit1)
	b.ReportMetric(sum2/float64(seen), unit2)
}

// BenchmarkEvolveNaive is the full-re-evaluation oracle lane
// (oracle_test.go).
func BenchmarkEvolveNaive(b *testing.B) { benchEvolveEngine(b, true) }

// BenchmarkEvolveIncremental is the default cached-delta engine.
func BenchmarkEvolveIncremental(b *testing.B) { benchEvolveEngine(b, false) }

// BenchmarkEvolveIncrementalLive is the default engine at the live
// dispatcher's PN shape.
func BenchmarkEvolveIncrementalLive(b *testing.B) {
	benchEvolveShape(b, false, evolveBenchTasks, liveBenchProcs, liveBenchGens)
}

// BenchmarkFitnessEvaluation measures the GA's inner loop: one full
// fitness evaluation of a 200-task, 50-processor chromosome.
func BenchmarkFitnessEvaluation(b *testing.B) {
	p := benchProblem(evolveBenchTasks, evolveBenchProcs, 9)
	pop := ListPopulation(p, 1, rng.New(9))
	eval := newCountingEvaluator(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Fitness(pop[0])
	}
}
