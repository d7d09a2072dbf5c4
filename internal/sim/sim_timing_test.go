package sim

import (
	"testing"

	"pnsched/internal/cluster"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// slowScheduler is a batch scheduler that charges a fixed compute cost
// per invocation, for testing that scheduler time delays assignments.
type slowScheduler struct {
	cost units.Seconds
}

func (slowScheduler) Name() string { return "slow" }

func (s slowScheduler) ScheduleBatch(batch []task.Task, st sched.State) (sched.Assignment, units.Seconds) {
	a := sched.NewAssignment(st.M())
	for i, t := range batch {
		a[i%st.M()] = append(a[i%st.M()], t)
	}
	return a, s.cost
}

func TestSchedulerCostDelaysExecution(t *testing.T) {
	// One task, one proc, scheduler takes 5s to think: the task cannot
	// start before t=5, so makespan = 5 + 100/10 = 15.
	res := Run(Config{
		Cluster:   cluster.New([]units.Rate{10}),
		Net:       freeNet(1),
		Tasks:     mkTasks(100),
		Scheduler: slowScheduler{cost: 5},
	})
	if res.Makespan != 15 {
		t.Errorf("makespan = %v, want 15 (scheduler thinking time)", res.Makespan)
	}
	if res.SchedulerBusy != 5 {
		t.Errorf("scheduler busy = %v, want 5", res.SchedulerBusy)
	}
}

func TestSchedulerCostAccumulatesAcrossBatches(t *testing.T) {
	tasks := mkTasks(10, 10, 10, 10)
	res := Run(Config{
		Cluster:    cluster.New([]units.Rate{10}),
		Net:        freeNet(1),
		Tasks:      tasks,
		Scheduler:  slowScheduler{cost: 2},
		BatchSizer: fixedSizer{size: 1}, // four invocations
	})
	if res.Invocations != 4 {
		t.Fatalf("invocations = %d, want 4", res.Invocations)
	}
	if res.SchedulerBusy != 8 {
		t.Errorf("scheduler busy = %v, want 8", res.SchedulerBusy)
	}
	if res.Completed != 4 {
		t.Errorf("completed = %d", res.Completed)
	}
}

type fixedSizer struct{ size int }

func (f fixedSizer) NextBatchSize(queued int, _ sched.State) int {
	if f.size > queued {
		return queued
	}
	return f.size
}

// budgetProbe records the TimeUntilFirstIdle each invocation sees.
type budgetProbe struct {
	inner   sched.Batch
	budgets *[]units.Seconds
}

func (b budgetProbe) Name() string { return "probe" }

func (b budgetProbe) ScheduleBatch(batch []task.Task, st sched.State) (sched.Assignment, units.Seconds) {
	*b.budgets = append(*b.budgets, st.TimeUntilFirstIdle())
	return b.inner.ScheduleBatch(batch, st)
}

func TestTimeUntilFirstIdleSemantics(t *testing.T) {
	var budgets []units.Seconds
	tasks := mkTasks(100, 100, 100, 100, 100, 100)
	res := Run(Config{
		Cluster:    cluster.New([]units.Rate{10, 10}),
		Net:        freeNet(2),
		Tasks:      tasks,
		Scheduler:  budgetProbe{inner: sched.MM{}, budgets: &budgets},
		BatchSizer: fixedSizer{size: 2},
	})
	if res.Completed != 6 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if len(budgets) < 2 {
		t.Fatalf("invocations = %d", len(budgets))
	}
	// First invocation: nothing queued anywhere → infinite budget.
	if !budgets[0].IsInf() {
		t.Errorf("first budget = %v, want Inf", budgets[0])
	}
	// Subsequent invocations: processors have work → finite budget.
	finite := false
	for _, b := range budgets[1:] {
		if !b.IsInf() {
			finite = true
			if b < 0 {
				t.Errorf("negative budget %v", b)
			}
		}
	}
	if !finite {
		t.Error("no finite budget ever observed")
	}
}

func TestTraceEventOrdering(t *testing.T) {
	var kinds []TraceKind
	Run(Config{
		Cluster:   cluster.New([]units.Rate{10}),
		Net:       freeNet(1),
		Tasks:     mkTasks(50),
		Scheduler: sched.EF{},
		Trace:     func(ev TraceEvent) { kinds = append(kinds, ev.Kind) },
	})
	if kinds[0] != TraceArrival {
		t.Errorf("first event = %v, want arrival", kinds[0])
	}
	// A start must precede its completion; with one task that is the
	// global ordering of those kinds.
	var started bool
	for _, k := range kinds {
		if k == TraceStart {
			started = true
		}
		if k == TraceComplete && !started {
			t.Fatal("completion before any start")
		}
	}
}
