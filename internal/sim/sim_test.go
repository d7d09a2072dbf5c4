package sim

import (
	"math"
	"testing"

	"pnsched/internal/cluster"
	"pnsched/internal/network"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

func freeNet(m int) *network.Network { return network.New(m, network.Config{}, rng.New(0)) }

func fixedNet(m int, cost units.Seconds) *network.Network {
	return network.New(m, network.Config{MeanCost: cost}, rng.New(99))
}

func mkTasks(sizes ...units.MFlops) []task.Task {
	out := make([]task.Task, len(sizes))
	for i, s := range sizes {
		out[i] = task.Task{ID: task.ID(i), Size: s}
	}
	return out
}

func TestSingleTaskSingleProc(t *testing.T) {
	res := Run(Config{
		Cluster:   cluster.New([]units.Rate{10}),
		Net:       freeNet(1),
		Tasks:     mkTasks(100),
		Scheduler: sched.EF{},
	})
	if res.Completed != 1 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.Makespan != 10 {
		t.Errorf("makespan = %v, want 10", res.Makespan)
	}
	if math.Abs(res.Efficiency-1) > 1e-9 {
		t.Errorf("efficiency = %v, want 1", res.Efficiency)
	}
	if res.Procs[0].Processed != 1 || res.Procs[0].Busy != 10 {
		t.Errorf("proc stats = %+v", res.Procs[0])
	}
}

func TestSequentialTasksOneProc(t *testing.T) {
	res := Run(Config{
		Cluster:   cluster.New([]units.Rate{10}),
		Net:       freeNet(1),
		Tasks:     mkTasks(100, 50, 150),
		Scheduler: sched.EF{},
	})
	if res.Completed != 3 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// (100+50+150)/10 = 30 seconds of work, strictly serialised.
	if res.Makespan != 30 {
		t.Errorf("makespan = %v, want 30", res.Makespan)
	}
}

func TestCommCostsExtendMakespanAndCutEfficiency(t *testing.T) {
	// One proc, two tasks, 5s per transfer: makespan = 2*(5+10) = 30,
	// busy = 20, efficiency = 20/30.
	res := Run(Config{
		Cluster:   cluster.New([]units.Rate{10}),
		Net:       fixedNet(1, 5),
		Tasks:     mkTasks(100, 100),
		Scheduler: sched.EF{},
	})
	if res.Makespan != 30 {
		t.Errorf("makespan = %v, want 30", res.Makespan)
	}
	if math.Abs(res.Efficiency-20.0/30.0) > 1e-9 {
		t.Errorf("efficiency = %v, want %v", res.Efficiency, 20.0/30.0)
	}
	if res.Procs[0].Comm != 10 {
		t.Errorf("comm time = %v, want 10", res.Procs[0].Comm)
	}
}

func TestParallelismAcrossProcs(t *testing.T) {
	// Two equal procs, two equal tasks: EF puts one on each.
	res := Run(Config{
		Cluster:   cluster.New([]units.Rate{10, 10}),
		Net:       freeNet(2),
		Tasks:     mkTasks(100, 100),
		Scheduler: sched.EF{},
	})
	if res.Makespan != 10 {
		t.Errorf("makespan = %v, want 10 (parallel)", res.Makespan)
	}
	if math.Abs(res.Efficiency-1) > 1e-9 {
		t.Errorf("efficiency = %v", res.Efficiency)
	}
}

func TestExactlyOnceProcessing(t *testing.T) {
	tasks := workload.Generate(workload.Spec{
		N:     500,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, rng.New(3))
	completions := map[task.ID]int{}
	starts := map[task.ID]int{}
	res := Run(Config{
		Cluster:   cluster.NewHeterogeneous(10, 50, 500, rng.New(4)),
		Net:       fixedNet(10, 0.5),
		Tasks:     tasks,
		Scheduler: sched.MM{},
		Trace: func(ev TraceEvent) {
			switch ev.Kind {
			case TraceComplete:
				completions[ev.Task]++
			case TraceStart:
				starts[ev.Task]++
			}
		},
	})
	if res.Completed != 500 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if len(completions) != 500 {
		t.Fatalf("distinct completions = %d", len(completions))
	}
	for id, n := range completions {
		if n != 1 {
			t.Errorf("task %d completed %d times", id, n)
		}
		if starts[id] != 1 {
			t.Errorf("task %d started %d times", id, starts[id])
		}
	}
}

func TestBusyPlusCommBoundedByMakespan(t *testing.T) {
	res := Run(Config{
		Cluster: cluster.NewHeterogeneous(8, 50, 500, rng.New(5)),
		Net:     fixedNet(8, 1),
		Tasks: workload.Generate(workload.Spec{
			N:     300,
			Sizes: workload.Normal{Mean: 1000, Variance: 9e5},
		}, rng.New(6)),
		Scheduler: sched.EF{},
	})
	if res.Completed != 300 {
		t.Fatalf("completed = %d", res.Completed)
	}
	for j, st := range res.Procs {
		if st.Busy+st.Comm > res.Makespan+1e-9 {
			t.Errorf("proc %d: busy %v + comm %v exceeds makespan %v", j, st.Busy, st.Comm, res.Makespan)
		}
	}
	if res.Efficiency <= 0 || res.Efficiency > 1 {
		t.Errorf("efficiency = %v outside (0,1]", res.Efficiency)
	}
}

func TestEFBeatsRRonHeterogeneousCluster(t *testing.T) {
	tasks := workload.Generate(workload.Spec{
		N:     400,
		Sizes: workload.Uniform{Lo: 10, Hi: 1000},
	}, rng.New(7))
	run := func(s sched.Scheduler) units.Seconds {
		return Run(Config{
			Cluster:   cluster.NewHeterogeneous(10, 10, 1000, rng.New(8)),
			Net:       freeNet(10),
			Tasks:     tasks,
			Scheduler: s,
		}).Makespan
	}
	ef := run(sched.EF{})
	rr := run(&sched.RR{})
	if ef >= rr {
		t.Errorf("EF makespan %v not better than RR %v on heterogeneous cluster", ef, rr)
	}
}

func TestBatchInvocations(t *testing.T) {
	tasks := mkTasks(make([]units.MFlops, 0)...)
	for i := 0; i < 1000; i++ {
		tasks = append(tasks, task.Task{ID: task.ID(i), Size: 10})
	}
	res := Run(Config{
		Cluster:    cluster.New([]units.Rate{10, 10, 10}),
		Net:        freeNet(3),
		Tasks:      tasks,
		Scheduler:  sched.MM{},
		BatchSizer: sched.FixedBatch{Batch: sched.MM{}, Size: 100},
	})
	if res.Completed != 1000 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.Invocations != 10 {
		t.Errorf("invocations = %d, want 10", res.Invocations)
	}
}

func TestDynamicArrivalsWakeIdleProcessors(t *testing.T) {
	// Two tasks arriving far apart: the processor idles in between.
	tasks := []task.Task{
		{ID: 0, Size: 10, Arrival: 0},
		{ID: 1, Size: 10, Arrival: 100},
	}
	var idles int
	res := Run(Config{
		Cluster:   cluster.New([]units.Rate{10}),
		Net:       freeNet(1),
		Tasks:     tasks,
		Scheduler: sched.EF{},
		Trace: func(ev TraceEvent) {
			if ev.Kind == TraceIdle {
				idles++
			}
		},
	})
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// Task 0 done at t=1; task 1 arrives t=100, done t=101.
	if res.Makespan != 101 {
		t.Errorf("makespan = %v, want 101", res.Makespan)
	}
	if idles == 0 {
		t.Error("processor never reported idle despite the arrival gap")
	}
}

func TestFailureRecoveryReissuesTasks(t *testing.T) {
	// Proc 1 dies at t=5 mid-stream; with recovery enabled all tasks
	// must still complete on proc 0.
	clu := cluster.New([]units.Rate{10, 10}).WithAvailability(func(i int) cluster.AvailabilityModel {
		if i == 1 {
			return cluster.OffAfter{Cutoff: 5}
		}
		return cluster.Full{}
	})
	tasks := mkTasks(100, 100, 100, 100, 100, 100)
	res := Run(Config{
		Cluster:        clu,
		Net:            freeNet(2),
		Tasks:          tasks,
		Scheduler:      sched.EF{},
		ReissueTimeout: 20,
	})
	if res.Completed != len(tasks) {
		t.Fatalf("completed = %d of %d despite recovery", res.Completed, len(tasks))
	}
	if res.Reissued == 0 {
		t.Error("no tasks reissued")
	}
	if !res.Procs[1].Dead {
		t.Error("proc 1 not marked dead")
	}
	if res.Procs[0].Dead {
		t.Error("healthy proc marked dead")
	}
}

func TestWithoutRecoveryTasksStrand(t *testing.T) {
	clu := cluster.New([]units.Rate{10, 10}).WithAvailability(func(i int) cluster.AvailabilityModel {
		if i == 1 {
			return cluster.OffAfter{Cutoff: 5}
		}
		return cluster.Full{}
	})
	res := Run(Config{
		Cluster:   clu,
		Net:       freeNet(2),
		Tasks:     mkTasks(100, 100, 100, 100, 100, 100),
		Scheduler: sched.EF{},
	})
	if res.Completed >= 6 {
		t.Errorf("completed = %d, expected stranded tasks without recovery", res.Completed)
	}
}

func TestMaxTimeAborts(t *testing.T) {
	res := Run(Config{
		Cluster:   cluster.New([]units.Rate{1}),
		Net:       freeNet(1),
		Tasks:     mkTasks(1000, 1000, 1000), // 3000s of work
		Scheduler: sched.EF{},
		MaxTime:   1500,
	})
	if res.Completed >= 3 {
		t.Errorf("completed = %d, want abort before all 3", res.Completed)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		return Run(Config{
			Cluster: cluster.NewHeterogeneous(12, 50, 500, rng.New(10)),
			Net: network.New(12, network.Config{
				MeanCost: 2, LinkSpread: 0.3, Jitter: 0.2,
			}, rng.New(11)),
			Tasks: workload.Generate(workload.Spec{
				N:     400,
				Sizes: workload.Poisson{Mean: 100},
			}, rng.New(12)),
			Scheduler: sched.MM{},
		})
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Efficiency != b.Efficiency || a.Completed != b.Completed {
		t.Errorf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	good := Config{
		Cluster:   cluster.New([]units.Rate{1}),
		Net:       freeNet(1),
		Scheduler: sched.EF{},
	}
	cases := map[string]Config{
		"nil cluster":      {Net: freeNet(1), Scheduler: sched.EF{}},
		"nil net":          {Cluster: good.Cluster, Scheduler: sched.EF{}},
		"link mismatch":    {Cluster: cluster.New([]units.Rate{1, 2}), Net: freeNet(1), Scheduler: sched.EF{}},
		"wrong sched type": {Cluster: good.Cluster, Net: freeNet(1), Scheduler: badScheduler{}},
		"NaN arrival": {Cluster: good.Cluster, Net: freeNet(1), Scheduler: sched.EF{},
			Tasks: []task.Task{{ID: 0, Size: 1}, {ID: 1, Size: 1, Arrival: units.Seconds(math.NaN())}}},
	}
	for name, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			Run(cfg)
		}()
	}
}

type badScheduler struct{}

func (badScheduler) Name() string { return "bad" }

// lossyScheduler drops tasks — the simulator must detect this.
type lossyScheduler struct{}

func (lossyScheduler) Name() string { return "lossy" }
func (lossyScheduler) ScheduleBatch(batch []task.Task, s sched.State) (sched.Assignment, units.Seconds) {
	return sched.NewAssignment(s.M()), 0 // loses every task
}

func TestPanicsOnLossyScheduler(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("lossy scheduler not detected")
		}
	}()
	Run(Config{
		Cluster:   cluster.New([]units.Rate{1}),
		Net:       freeNet(1),
		Tasks:     mkTasks(10),
		Scheduler: lossyScheduler{},
	})
}

func TestEmptyWorkload(t *testing.T) {
	res := Run(Config{
		Cluster:   cluster.New([]units.Rate{10}),
		Net:       freeNet(1),
		Scheduler: sched.EF{},
	})
	if res.Completed != 0 || res.Makespan != 0 || res.Efficiency != 0 {
		t.Errorf("empty workload: %+v", res)
	}
}

func TestVariableAvailabilitySlowsCompletion(t *testing.T) {
	tasks := workload.Generate(workload.Spec{
		N:     100,
		Sizes: workload.Constant{Size: 100},
	}, rng.New(13))
	base := cluster.New([]units.Rate{50, 50, 50, 50})
	full := Run(Config{
		Cluster: base, Net: freeNet(4), Tasks: tasks, Scheduler: sched.EF{},
	})
	halved := Run(Config{
		Cluster: base.WithAvailability(func(i int) cluster.AvailabilityModel {
			tr, err := cluster.NewTrace([]units.Seconds{0}, []float64{0.5})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}),
		Net: freeNet(4), Tasks: tasks, Scheduler: sched.EF{},
	})
	if full.Completed != 100 || halved.Completed != 100 {
		t.Fatalf("completions: %d, %d", full.Completed, halved.Completed)
	}
	ratio := float64(halved.Makespan) / float64(full.Makespan)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("half availability should double makespan; ratio = %v", ratio)
	}
}

func TestRateObservationFeedsScheduler(t *testing.T) {
	// A processor advertising rate 100 but actually delivering 10 (90%
	// stolen by other users): after enough completions the scheduler's
	// believed rate must approach the effective one.
	tr, err := cluster.NewTrace([]units.Seconds{0}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	clu := cluster.New([]units.Rate{100}).WithAvailability(func(int) cluster.AvailabilityModel { return tr })
	var lastRate units.Rate
	probe := probeScheduler{onAssign: func(s sched.State) { lastRate = s.Rate(0) }}
	// Spread arrivals so later Assign calls happen after completions —
	// each task takes 10s at the effective rate.
	tasks := mkTasks(100, 100, 100, 100, 100, 100, 100, 100)
	for i := range tasks {
		tasks[i].Arrival = units.Seconds(50 * i)
	}
	res := Run(Config{
		Cluster:   clu,
		Net:       freeNet(1),
		Tasks:     tasks,
		Scheduler: probe,
	})
	if res.Completed != 8 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if lastRate > 20 {
		t.Errorf("scheduler still believes rate %v, want ~10 after observations", lastRate)
	}
}

// probeScheduler is an immediate scheduler that records the state it sees.
type probeScheduler struct {
	onAssign func(sched.State)
}

func (probeScheduler) Name() string { return "probe" }
func (p probeScheduler) Assign(t task.Task, s sched.State) int {
	if p.onAssign != nil {
		p.onAssign(s)
	}
	return 0
}
