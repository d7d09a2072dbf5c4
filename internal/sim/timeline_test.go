package sim

import (
	"math"
	"strings"
	"testing"

	"pnsched/internal/cluster"
	"pnsched/internal/network"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

func TestTimelineMatchesStats(t *testing.T) {
	tl := &Timeline{} // re-initialised by Run
	res := Run(Config{
		Cluster: cluster.NewHeterogeneous(6, 20, 200, rng.New(1)),
		Net:     network.New(6, network.Config{MeanCost: 2, LinkSpread: 0.3, Jitter: 0.2}, rng.New(2)),
		Tasks: workload.Generate(workload.Spec{
			N:     200,
			Sizes: workload.Uniform{Lo: 10, Hi: 1000},
		}, rng.New(3)),
		Scheduler: sched.EF{},
		Timeline:  tl,
	})
	if res.Completed != 200 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if err := tl.Validate(); err != nil {
		t.Fatalf("timeline invalid: %v", err)
	}
	if tl.Makespan != res.Makespan {
		t.Errorf("timeline makespan %v != result %v", tl.Makespan, res.Makespan)
	}
	// Segment sums must exactly match the simulator's accounting.
	for j := range tl.Procs {
		var busy, comm units.Seconds
		for _, s := range tl.Procs[j] {
			switch s.Kind {
			case SegBusy:
				busy += s.End - s.Start
			case SegComm:
				comm += s.End - s.Start
			}
		}
		if math.Abs(float64(busy-res.Procs[j].Busy)) > 1e-6 {
			t.Errorf("proc %d busy: timeline %v vs stats %v", j, busy, res.Procs[j].Busy)
		}
		if math.Abs(float64(comm-res.Procs[j].Comm)) > 1e-6 {
			t.Errorf("proc %d comm: timeline %v vs stats %v", j, comm, res.Procs[j].Comm)
		}
	}
}

func TestTimelineUtilization(t *testing.T) {
	tl := &Timeline{Procs: make([][]Segment, 1)}
	tl.Makespan = 10
	tl.Procs[0] = []Segment{
		{Start: 0, End: 2, Kind: SegComm},
		{Start: 2, End: 8, Kind: SegBusy},
	}
	busy, comm, idle := tl.Utilization(0)
	if busy != 0.6 || comm != 0.2 || math.Abs(idle-0.2) > 1e-12 {
		t.Errorf("utilization = %v %v %v", busy, comm, idle)
	}
}

func TestTimelineUtilizationEmpty(t *testing.T) {
	tl := &Timeline{Procs: make([][]Segment, 1)}
	busy, comm, idle := tl.Utilization(0)
	if busy != 0 || comm != 0 || idle != 0 {
		t.Errorf("empty utilization = %v %v %v", busy, comm, idle)
	}
}

func TestTimelineValidateCatchesOverlap(t *testing.T) {
	tl := &Timeline{Procs: make([][]Segment, 1)}
	tl.Makespan = 10
	tl.Procs[0] = []Segment{
		{Start: 0, End: 5, Kind: SegBusy},
		{Start: 4, End: 6, Kind: SegBusy}, // overlaps
	}
	if err := tl.Validate(); err == nil {
		t.Error("overlapping segments passed validation")
	}
	tl.Procs[0] = []Segment{{Start: 3, End: 2, Kind: SegBusy}}
	if err := tl.Validate(); err == nil {
		t.Error("inverted segment passed validation")
	}
	tl.Procs[0] = []Segment{{Start: 5, End: 20, Kind: SegBusy}}
	if err := tl.Validate(); err == nil {
		t.Error("segment past makespan passed validation")
	}
}

func TestGanttRendering(t *testing.T) {
	tl := &Timeline{Procs: make([][]Segment, 2)}
	tl.Makespan = 10
	tl.Procs[0] = []Segment{
		{Start: 0, End: 1, Kind: SegComm, Task: 0},
		{Start: 1, End: 9, Kind: SegBusy, Task: 0},
	}
	tl.Procs[1] = []Segment{{Start: 0, End: 5, Kind: SegBusy, Task: 1}}
	var sb strings.Builder
	tl.Gantt(&sb, 40)
	out := sb.String()
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P1") {
		t.Errorf("gantt missing processor rows:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "~") || !strings.Contains(out, ".") {
		t.Errorf("gantt missing activity glyphs:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	tl := &Timeline{Procs: make([][]Segment, 1)}
	var sb strings.Builder
	tl.Gantt(&sb, 40)
	if !strings.Contains(sb.String(), "empty") {
		t.Errorf("empty gantt output = %q", sb.String())
	}
}

func TestSegmentKindString(t *testing.T) {
	if SegBusy.String() != "busy" || SegComm.String() != "comm" {
		t.Error("segment kind strings wrong")
	}
	if SegmentKind(9).String() == "" {
		t.Error("unknown kind must stringify")
	}
}

// Every scheduler must produce a valid, stats-consistent timeline.
func TestTimelineValidAcrossSchedulers(t *testing.T) {
	tasks := workload.Generate(workload.Spec{
		N:     100,
		Sizes: workload.Poisson{Mean: 100},
	}, rng.New(4))
	for _, s := range []sched.Scheduler{sched.EF{}, sched.LL{}, &sched.RR{}, sched.MM{}, sched.MX{}, sched.Sufferage{}, sched.MET{}, sched.OLB{}, sched.KPB{}} {
		tl := &Timeline{}
		res := Run(Config{
			Cluster:   cluster.NewHeterogeneous(5, 20, 200, rng.New(5)),
			Net:       network.New(5, network.Config{MeanCost: 1, Jitter: 0.2}, rng.New(6)),
			Tasks:     tasks,
			Scheduler: s,
			Timeline:  tl,
		})
		if res.Completed != 100 {
			t.Errorf("%s completed %d", s.Name(), res.Completed)
		}
		if err := tl.Validate(); err != nil {
			t.Errorf("%s produced invalid timeline: %v", s.Name(), err)
		}
	}
}
