// Integration tests across the whole stack: the paper's headline claim
// (PN beats all six comparators), exactly-once processing under every
// scheduler, and cross-component determinism.
package pnsched_test

import (
	"testing"

	"pnsched/internal/cluster"
	"pnsched/internal/core"
	"pnsched/internal/metrics"
	"pnsched/internal/network"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/sim"
	"pnsched/internal/task"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// headlineScenario runs one repeat of the Fig-5-style comparison at
// test scale: within a repeat every scheduler sees identical tasks,
// cluster and network.
func headlineScenario(t *testing.T, rep uint64, mk func(seed uint64) sched.Scheduler) sim.Result {
	t.Helper()
	tasks := workload.Generate(workload.Spec{
		N:     400,
		Sizes: workload.Normal{Mean: 1000, Variance: 9e5},
	}, rng.New(101+rep))
	s := mk(202 + rep)
	cfg := sim.Config{
		Cluster:   cluster.NewHeterogeneous(12, 10, 100, rng.New(303+rep)),
		Net:       network.New(12, network.Config{MeanCost: 10, LinkSpread: 0.3, Jitter: 0.2}, rng.New(404+rep)),
		Tasks:     tasks,
		Scheduler: s,
	}
	if b, ok := s.(sched.Batch); ok {
		if _, own := s.(sched.BatchSizer); !own {
			cfg.BatchSizer = sched.FixedBatch{Batch: b, Size: 200}
		}
	}
	res := sim.Run(cfg)
	if res.Completed != len(tasks) {
		t.Fatalf("%s completed %d of %d", s.Name(), res.Completed, len(tasks))
	}
	return res
}

// TestHeadlineClaim verifies the paper's conclusion at test scale: the
// PN scheduler produces the lowest mean makespan and the highest mean
// efficiency of all seven schedulers on the normal-distribution
// workload. The claim is about averages (the paper reports means of
// 20–50 repeats), so this averages several deterministic repeats.
func TestHeadlineClaim(t *testing.T) {
	const repeats = 4
	gaCfg := core.DefaultConfig()
	gaCfg.Generations = 200
	gaCfg.FixedBatch = true
	schedulers := map[string]func(seed uint64) sched.Scheduler{
		"EF": func(uint64) sched.Scheduler { return sched.EF{} },
		"LL": func(uint64) sched.Scheduler { return sched.LL{} },
		"RR": func(uint64) sched.Scheduler { return &sched.RR{} },
		"MM": func(uint64) sched.Scheduler { return sched.MM{} },
		"MX": func(uint64) sched.Scheduler { return sched.MX{} },
		"ZO": func(seed uint64) sched.Scheduler { return core.NewZO(gaCfg, rng.New(seed)) },
		"PN": func(seed uint64) sched.Scheduler { return core.NewPN(gaCfg, rng.New(seed)) },
	}
	makespans := map[string]float64{}
	efficiencies := map[string]float64{}
	for name, mk := range schedulers {
		for rep := uint64(0); rep < repeats; rep++ {
			res := headlineScenario(t, rep, mk)
			makespans[name] += float64(res.Makespan) / repeats
			efficiencies[name] += res.Efficiency / repeats
		}
	}
	for name, mk := range makespans {
		if name == "PN" {
			continue
		}
		if makespans["PN"] >= mk {
			t.Errorf("PN mean makespan %.1f not below %s's %.1f", makespans["PN"], name, mk)
		}
		if efficiencies["PN"] <= efficiencies[name] {
			t.Errorf("PN mean efficiency %.3f not above %s's %.3f", efficiencies["PN"], name, efficiencies[name])
		}
	}
	t.Logf("mean makespans over %d repeats: %v", repeats, makespans)
}

// TestExactlyOnceAllSchedulers runs every scheduler in the repository
// (the paper's seven plus the Maheswaran et al. four) over the same
// workload and verifies each task is processed exactly once.
func TestExactlyOnceAllSchedulers(t *testing.T) {
	gaCfg := core.DefaultConfig()
	gaCfg.Generations = 50
	all := []func() sched.Scheduler{
		func() sched.Scheduler { return sched.EF{} },
		func() sched.Scheduler { return sched.LL{} },
		func() sched.Scheduler { return &sched.RR{} },
		func() sched.Scheduler { return sched.MM{} },
		func() sched.Scheduler { return sched.MX{} },
		func() sched.Scheduler { return sched.MET{} },
		func() sched.Scheduler { return sched.OLB{} },
		func() sched.Scheduler { return sched.KPB{K: 20} },
		func() sched.Scheduler { return sched.Sufferage{} },
		func() sched.Scheduler { return core.NewPN(gaCfg, rng.New(1)) },
		func() sched.Scheduler { return core.NewZO(gaCfg, rng.New(1)) },
	}
	tasks := workload.Generate(workload.Spec{
		N:     150,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, rng.New(7))
	for _, mk := range all {
		s := mk()
		counts := map[task.ID]int{}
		res := sim.Run(sim.Config{
			Cluster:   cluster.NewHeterogeneous(6, 20, 200, rng.New(8)),
			Net:       network.New(6, network.Config{MeanCost: 1, Jitter: 0.1}, rng.New(9)),
			Tasks:     tasks,
			Scheduler: s,
			Trace: func(ev sim.TraceEvent) {
				if ev.Kind == sim.TraceComplete {
					counts[ev.Task]++
				}
			},
		})
		if res.Completed != len(tasks) {
			t.Errorf("%s completed %d of %d", s.Name(), res.Completed, len(tasks))
		}
		for id, n := range counts {
			if n != 1 {
				t.Errorf("%s processed task %d %d times", s.Name(), id, n)
			}
		}
	}
}

// TestMakespanLowerBound: no scheduler can beat the total-work /
// total-rate bound on a fully available cluster with free links.
func TestMakespanLowerBound(t *testing.T) {
	tasks := workload.Generate(workload.Spec{
		N:     200,
		Sizes: workload.Poisson{Mean: 100},
	}, rng.New(11))
	clu := cluster.NewHeterogeneous(8, 20, 200, rng.New(12))
	var work units.MFlops
	for _, tk := range tasks {
		work += tk.Size
	}
	bound := work.TimeOn(clu.TotalRateAt(0))
	gaCfg := core.DefaultConfig()
	gaCfg.Generations = 100
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.EF{} },
		func() sched.Scheduler { return core.NewPN(gaCfg, rng.New(13)) },
	} {
		s := mk()
		res := sim.Run(sim.Config{
			Cluster:   clu,
			Net:       network.New(8, network.Config{}, rng.New(0)),
			Tasks:     tasks,
			Scheduler: s,
		})
		if res.Makespan < bound {
			t.Errorf("%s makespan %v beat the physical bound %v", s.Name(), res.Makespan, bound)
		}
	}
}

// TestMetricsAggregationPipeline exercises sim → metrics end to end.
func TestMetricsAggregationPipeline(t *testing.T) {
	var runs []sim.Result
	for rep := 0; rep < 3; rep++ {
		res := sim.Run(sim.Config{
			Cluster: cluster.NewHeterogeneous(4, 50, 200, rng.New(uint64(20+rep))),
			Net:     network.New(4, network.Config{MeanCost: 0.5}, rng.New(uint64(30+rep))),
			Tasks: workload.Generate(workload.Spec{
				N:     100,
				Sizes: workload.Uniform{Lo: 10, Hi: 500},
			}, rng.New(uint64(40+rep))),
			Scheduler: sched.MM{},
		})
		runs = append(runs, res)
	}
	agg := metrics.Aggregate(runs)
	if agg.N != 3 || agg.Completed != 300 {
		t.Errorf("aggregate = %+v", agg)
	}
	if agg.Makespan.Mean <= 0 || agg.Efficiency.Mean <= 0 {
		t.Error("degenerate aggregate statistics")
	}
}
