// Benchmarks regenerating every figure of the paper's evaluation plus
// ablations of the method's design choices. Each figure
// bench runs the corresponding experiment at the fast profile and
// reports its headline number as a custom metric, so
//
//	go test -bench=Fig -benchmem
//
// produces one row per paper figure. The pnbench command renders the
// full tables; these benches tie the regeneration into `go test`.
package pnsched_test

import (
	"testing"

	"pnsched/internal/cluster"
	"pnsched/internal/core"
	"pnsched/internal/experiments"
	"pnsched/internal/ga"
	"pnsched/internal/network"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/sim"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// benchProfile is the scale used by the figure benches: small enough
// for `go test -bench=.`, same machinery as the paper profile.
func benchProfile() experiments.Profile {
	p := experiments.Fast()
	p.Workers = 1 // benches measure single-threaded regeneration cost
	return p
}

// BenchmarkFig3 regenerates the GA-convergence curves (pure GA vs 1 vs
// 50 rebalances) and reports the final fraction of the initial
// makespan reached with 50 rebalances.
func BenchmarkFig3(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(p)
		b.ReportMetric(res.Fifty[len(res.Fifty)-1], "final-frac-50rb")
	}
}

// BenchmarkFig4 regenerates the time-vs-rebalances study and reports
// the fitted slope (seconds per added rebalance).
func BenchmarkFig4(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4(p)
		b.ReportMetric(res.Fit.Slope, "s/rebalance")
	}
}

// efficiency sweep benches report PN's mean efficiency at the cheapest
// communication point.
func benchSweep(b *testing.B, run func(experiments.Profile) *experiments.EfficiencySweep) {
	b.Helper()
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		res := run(p)
		pnIdx := -1
		for si, name := range res.Schedulers {
			if name == "PN" {
				pnIdx = si
			}
		}
		b.ReportMetric(res.Eff[pnIdx][len(res.X)-1], "PN-eff")
	}
}

// BenchmarkFig5 regenerates the normal-distribution efficiency sweep.
func BenchmarkFig5(b *testing.B) { benchSweep(b, experiments.Fig5) }

// BenchmarkFig7 regenerates the uniform-distribution efficiency sweep.
func BenchmarkFig7(b *testing.B) { benchSweep(b, experiments.Fig7) }

// makespan bar benches report PN's mean makespan.
func benchBars(b *testing.B, run func(experiments.Profile) *experiments.MakespanBars) {
	b.Helper()
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		res := run(p)
		for si, name := range res.Schedulers {
			if name == "PN" {
				b.ReportMetric(res.Makespan[si], "PN-makespan-s")
			}
		}
	}
}

// BenchmarkFig6 regenerates the normal-distribution makespan bars with
// PN's dynamic batch sizing.
func BenchmarkFig6(b *testing.B) { benchBars(b, experiments.Fig6) }

// BenchmarkFig8 regenerates the uniform 10-100 MFLOPs makespan bars.
func BenchmarkFig8(b *testing.B) { benchBars(b, experiments.Fig8) }

// BenchmarkFig9 regenerates the uniform 10-10000 MFLOPs makespan bars.
func BenchmarkFig9(b *testing.B) { benchBars(b, experiments.Fig9) }

// BenchmarkFig10 regenerates the Poisson(10) makespan bars.
func BenchmarkFig10(b *testing.B) { benchBars(b, experiments.Fig10) }

// BenchmarkFig11 regenerates the Poisson(100) makespan bars.
func BenchmarkFig11(b *testing.B) { benchBars(b, experiments.Fig11) }

// ---- Ablations -----------------------------------------------------

// ablationProblem is a fixed 100-task, 10-processor batch problem.
func ablationProblem(withComm bool) *core.Problem {
	r := rng.New(77)
	batch := workload.Generate(workload.Spec{
		N:     100,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, r.Stream(1))
	rr := r.Stream(2)
	rates := make([]units.Rate, 10)
	comm := make([]units.Seconds, 10)
	for j := range rates {
		rates[j] = units.Rate(rr.Uniform(10, 100))
		comm[j] = units.Seconds(rr.Uniform(0.5, 5))
	}
	if !withComm {
		comm = nil
	}
	return core.BuildProblem(batch, rates, nil, comm, withComm)
}

// benchEvolve runs the GA at the given rebalance count and reports the
// achieved makespan.
func benchEvolve(b *testing.B, rebalances int) {
	b.Helper()
	p := ablationProblem(false)
	cfg := core.DefaultConfig()
	cfg.Generations = 200
	cfg.Rebalances = rebalances
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		initial := core.ListPopulation(p, cfg.Population, r)
		st := core.Evolve(p, cfg, initial, units.Inf(), r)
		b.ReportMetric(float64(st.BestMakespan), "makespan-s")
	}
}

// BenchmarkAblationRebalance0 is the pure GA (Fig. 3 "Pure GA" curve).
func BenchmarkAblationRebalance0(b *testing.B) { benchEvolve(b, 0) }

// BenchmarkAblationRebalance1 is the paper's production choice.
func BenchmarkAblationRebalance1(b *testing.B) { benchEvolve(b, 1) }

// BenchmarkAblationRebalance50 is the quality-over-speed extreme.
func BenchmarkAblationRebalance50(b *testing.B) { benchEvolve(b, 50) }

// benchInit measures the value of the list-scheduling initial
// population against ZO-style random seeding.
func benchInit(b *testing.B, list bool) {
	b.Helper()
	p := ablationProblem(false)
	cfg := core.DefaultConfig()
	cfg.Generations = 200
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		var st core.EvolveStats
		if list {
			st = core.Evolve(p, cfg, core.ListPopulation(p, cfg.Population, r), units.Inf(), r)
		} else {
			st = core.Evolve(p, cfg, core.RandomPopulation(p, cfg.Population, r), units.Inf(), r)
		}
		b.ReportMetric(float64(st.BestMakespan), "makespan-s")
	}
}

// BenchmarkAblationInitList seeds with the §3.3 list-scheduling
// heuristic.
func BenchmarkAblationInitList(b *testing.B) { benchInit(b, true) }

// BenchmarkAblationInitRandom seeds randomly (the ZO approach).
func BenchmarkAblationInitRandom(b *testing.B) { benchInit(b, false) }

// benchSim runs one full simulation with the given scheduler.
func benchSim(b *testing.B, mk func(seed uint64) sched.Scheduler) {
	b.Helper()
	tasks := workload.Generate(workload.Spec{
		N:     300,
		Sizes: workload.Normal{Mean: 1000, Variance: 9e5},
	}, rng.New(5))
	for i := 0; i < b.N; i++ {
		res := sim.Run(sim.Config{
			Cluster:   cluster.NewHeterogeneous(10, 10, 100, rng.New(6)),
			Net:       network.New(10, network.Config{MeanCost: 10, LinkSpread: 0.3, Jitter: 0.2}, rng.New(7)),
			Tasks:     tasks,
			Scheduler: mk(uint64(i)),
		})
		b.ReportMetric(float64(res.Makespan), "makespan-s")
		b.ReportMetric(res.Efficiency, "efficiency")
	}
}

// BenchmarkAblationDynamicBatch runs PN with the §3.7 dynamic rule.
func BenchmarkAblationDynamicBatch(b *testing.B) {
	benchSim(b, func(seed uint64) sched.Scheduler {
		cfg := core.DefaultConfig()
		cfg.Generations = 100
		return core.NewPN(cfg, rng.New(seed))
	})
}

// BenchmarkAblationFixedBatch runs PN with a fixed batch of 200.
func BenchmarkAblationFixedBatch(b *testing.B) {
	benchSim(b, func(seed uint64) sched.Scheduler {
		cfg := core.DefaultConfig()
		cfg.Generations = 100
		cfg.FixedBatch = true
		return core.NewPN(cfg, rng.New(seed))
	})
}

// BenchmarkAblationNoCommPrediction runs ZO (communication ignored
// until incurred); BenchmarkAblationFixedBatch is the PN side of the
// contrast (communication costs in the fitness, same fixed batch).
func BenchmarkAblationNoCommPrediction(b *testing.B) {
	benchSim(b, func(seed uint64) sched.Scheduler {
		cfg := core.DefaultConfig()
		cfg.Generations = 100
		return core.NewZO(cfg, rng.New(seed))
	})
}

// benchCrossover runs the GA with the given operator and reports the
// achieved makespan — the CX-vs-PMX-vs-OX operator ablation.
func benchCrossover(b *testing.B, cx ga.Crossover) {
	b.Helper()
	p := ablationProblem(false)
	cfg := core.DefaultConfig()
	cfg.Generations = 200
	cfg.Crossover = cx
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		initial := core.ListPopulation(p, cfg.Population, r)
		st := core.Evolve(p, cfg, initial, units.Inf(), r)
		b.ReportMetric(float64(st.BestMakespan), "makespan-s")
	}
}

// BenchmarkAblationCrossoverCX uses the paper's cycle crossover.
func BenchmarkAblationCrossoverCX(b *testing.B) { benchCrossover(b, ga.CX) }

// BenchmarkAblationCrossoverPMX uses partially mapped crossover.
func BenchmarkAblationCrossoverPMX(b *testing.B) { benchCrossover(b, ga.PMX) }

// BenchmarkAblationCrossoverOX uses order crossover.
func BenchmarkAblationCrossoverOX(b *testing.B) { benchCrossover(b, ga.OX) }

// BenchmarkSupplementaryExtended regenerates the extended-scheduler
// comparison (paper's seven + Maheswaran et al.'s four).
func BenchmarkSupplementaryExtended(b *testing.B) { benchBars(b, experiments.Extended) }

// BenchmarkSupplementaryScalability regenerates the processor sweep.
func BenchmarkSupplementaryScalability(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		res := experiments.Scalability(p)
		last := len(res.Procs) - 1
		b.ReportMetric(res.Makespan[0][last], "PN-makespan-s")
	}
}

// BenchmarkSupplementaryDynamic regenerates the dynamic-conditions
// comparison.
func BenchmarkSupplementaryDynamic(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		res := experiments.Dynamic(p)
		b.ReportMetric(res.Makespan[0][0], "PN-static-makespan-s")
	}
}

// BenchmarkFitnessEvaluation measures the GA's inner loop: one fitness
// evaluation of a 200-task, 50-processor chromosome.
func BenchmarkFitnessEvaluation(b *testing.B) {
	r := rng.New(9)
	batch := workload.Generate(workload.Spec{
		N:     200,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, r)
	rates := make([]units.Rate, 50)
	for j := range rates {
		rates[j] = units.Rate(r.Uniform(10, 100))
	}
	p := core.BuildProblem(batch, rates, nil, nil, false)
	pop := core.ListPopulation(p, 1, r)
	eval := p.Evaluator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Fitness(pop[0])
	}
}

// BenchmarkHeuristicSchedulers measures the per-simulation cost of the
// non-GA baselines for scale comparison.
func BenchmarkHeuristicSchedulers(b *testing.B) {
	benchSim(b, func(uint64) sched.Scheduler { return sched.EF{} })
}
