package sim

import (
	"testing"
	"testing/quick"

	"pnsched/internal/cluster"
	"pnsched/internal/network"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// randomConfig draws a random-but-valid simulation configuration.
func randomConfig(seed uint64) (Config, int) {
	r := rng.New(seed)
	m := r.Intn(12) + 1
	n := r.Intn(200) + 1

	var clu *cluster.Cluster
	base := cluster.NewHeterogeneous(m, units.Rate(r.Uniform(5, 50)), units.Rate(r.Uniform(60, 500)), r.Stream(1))
	switch r.Intn(3) {
	case 0:
		clu = base
	case 1:
		walks := r.Stream(2)
		clu = base.WithAvailability(func(i int) cluster.AvailabilityModel {
			return cluster.NewRandomWalk(units.Seconds(r.Uniform(5, 50)), 0.3, 0.2, 0.9, walks.Stream(uint64(i)))
		})
	default:
		clu = base.WithAvailability(func(i int) cluster.AvailabilityModel {
			return cluster.Sinusoidal{Mean: 0.7, Amplitude: 0.25, Period: units.Seconds(r.Uniform(50, 400)), Phase: float64(i)}
		})
	}

	net := network.New(m, network.Config{
		MeanCost:   units.Seconds(r.Uniform(0, 5)),
		LinkSpread: r.Uniform(0, 0.5),
		Jitter:     r.Uniform(0, 0.5),
	}, r.Stream(3))

	var dist workload.SizeDistribution
	switch r.Intn(3) {
	case 0:
		dist = workload.Uniform{Lo: 10, Hi: units.MFlops(r.Uniform(100, 5000))}
	case 1:
		dist = workload.Normal{Mean: 1000, Variance: 9e5}
	default:
		dist = workload.Poisson{Mean: units.MFlops(r.Uniform(10, 200))}
	}
	spec := workload.Spec{N: n, Sizes: dist}
	if r.Float64() < 0.4 {
		spec.Arrival = workload.PoissonArrivals{MeanGap: units.Seconds(r.Uniform(0.01, 1))}
	}
	tasks := workload.Generate(spec, r.Stream(4))

	var s sched.Scheduler
	switch r.Intn(6) {
	case 0:
		s = sched.EF{}
	case 1:
		s = sched.LL{}
	case 2:
		s = &sched.RR{}
	case 3:
		s = sched.MM{}
	case 4:
		s = sched.MX{}
	default:
		s = sched.Sufferage{}
	}
	return Config{Cluster: clu, Net: net, Tasks: tasks, Scheduler: s}, n
}

// TestSimulatorInvariantsUnderRandomConfigs drives the simulator
// through random valid configurations and asserts the global
// invariants: every task completes exactly once, busy+comm never
// exceeds the makespan on any processor, efficiency is in (0,1], and
// the makespan respects the total-work lower bound when the cluster is
// fully available and links are free.
func TestSimulatorInvariantsUnderRandomConfigs(t *testing.T) {
	f := func(seed uint64) bool {
		cfg, n := randomConfig(seed)
		completions := map[task.ID]int{}
		cfg.Trace = func(ev TraceEvent) {
			if ev.Kind == TraceComplete {
				completions[ev.Task]++
			}
		}
		res := Run(cfg)
		if res.Completed != n || len(completions) != n {
			return false
		}
		for _, c := range completions {
			if c != 1 {
				return false
			}
		}
		if res.Efficiency <= 0 || res.Efficiency > 1 {
			return false
		}
		for _, st := range res.Procs {
			if st.Busy < 0 || st.Comm < 0 {
				return false
			}
			if st.Busy+st.Comm > res.Makespan+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSimulatorTimelineInvariantUnderRandomConfigs repeats the random
// sweep with timelines attached: they must always validate.
func TestSimulatorTimelineInvariantUnderRandomConfigs(t *testing.T) {
	f := func(seed uint64) bool {
		cfg, n := randomConfig(seed)
		tl := &Timeline{}
		cfg.Timeline = tl
		res := Run(cfg)
		if res.Completed != n {
			return false
		}
		return tl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
