package sched

import (
	"reflect"
	"testing"

	"pnsched/internal/rng"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// fakeState is a hand-set scheduler view for heuristic tests.
type fakeState struct {
	rates []units.Rate
	loads []units.MFlops
	comm  []units.Seconds
	now   units.Seconds
}

func (f *fakeState) M() int                            { return len(f.rates) }
func (f *fakeState) Rate(j int) units.Rate             { return f.rates[j] }
func (f *fakeState) PendingLoad(j int) units.MFlops    { return f.loads[j] }
func (f *fakeState) CommEstimate(j int) units.Seconds  { return f.comm[j] }
func (f *fakeState) Now() units.Seconds                { return f.now }
func (f *fakeState) TimeUntilFirstIdle() units.Seconds { return units.Inf() }

func newFake(rates []units.Rate, loads []units.MFlops) *fakeState {
	return &fakeState{
		rates: rates,
		loads: loads,
		comm:  make([]units.Seconds, len(rates)),
	}
}

func tk(id task.ID, size units.MFlops) task.Task { return task.Task{ID: id, Size: size} }

func TestEFPicksEarliestFinisher(t *testing.T) {
	// Proc 0: rate 10, load 100 → finish (100+50)/10 = 15
	// Proc 1: rate 50, load 400 → finish (400+50)/50 = 9  ← winner
	// Proc 2: rate 5,  load 0   → finish 50/5 = 10
	s := newFake([]units.Rate{10, 50, 5}, []units.MFlops{100, 400, 0})
	if got := (EF{}).Assign(tk(0, 50), s); got != 1 {
		t.Errorf("EF chose %d, want 1", got)
	}
}

func TestEFConsidersTaskSize(t *testing.T) {
	// A fast loaded machine vs a slow empty one: small task → slow empty
	// wins; huge task → fast machine wins.
	s := newFake([]units.Rate{100, 2}, []units.MFlops{1000, 0})
	if got := (EF{}).Assign(tk(0, 1), s); got != 1 {
		t.Errorf("small task: EF chose %d, want 1 (finish 0.5 vs 10.01)", got)
	}
	if got := (EF{}).Assign(tk(0, 5000), s); got != 0 {
		t.Errorf("huge task: EF chose %d, want 0 (finish 60 vs 2500)", got)
	}
}

func TestEFSkipsStoppedProcessors(t *testing.T) {
	s := newFake([]units.Rate{0, 10}, []units.MFlops{0, 1e6})
	if got := (EF{}).Assign(tk(0, 10), s); got != 1 {
		t.Errorf("EF chose stopped processor %d", got)
	}
}

func TestEFAllStoppedFallsBack(t *testing.T) {
	s := newFake([]units.Rate{0, 0}, []units.MFlops{0, 0})
	if got := (EF{}).Assign(tk(0, 10), s); got != 0 {
		t.Errorf("EF with all-stopped cluster chose %d, want 0", got)
	}
}

func TestEFTieBreaksLowestIndex(t *testing.T) {
	s := newFake([]units.Rate{10, 10, 10}, []units.MFlops{0, 0, 0})
	if got := (EF{}).Assign(tk(0, 10), s); got != 0 {
		t.Errorf("EF tie-break chose %d, want 0", got)
	}
}

func TestLLIgnoresTaskSizeAndRate(t *testing.T) {
	// Proc 1 has least load despite being slowest: LL must choose it.
	s := newFake([]units.Rate{100, 1, 50}, []units.MFlops{500, 10, 300})
	if got := (LL{}).Assign(tk(0, 1e6), s); got != 1 {
		t.Errorf("LL chose %d, want 1", got)
	}
}

func TestLLTieBreaksLowestIndex(t *testing.T) {
	s := newFake([]units.Rate{1, 1}, []units.MFlops{5, 5})
	if got := (LL{}).Assign(tk(0, 1), s); got != 0 {
		t.Errorf("LL tie-break chose %d, want 0", got)
	}
}

func TestRRCycles(t *testing.T) {
	s := newFake([]units.Rate{1, 1, 1}, []units.MFlops{0, 0, 0})
	r := &RR{}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := r.Assign(tk(task.ID(i), 1), s); got != w {
			t.Errorf("RR assignment %d = %d, want %d", i, got, w)
		}
	}
}

func TestMXPlacesLargestFirst(t *testing.T) {
	// Two identical processors; tasks 100, 10, 1. MX sorts descending:
	// 100→p0, 10→p1, 1→p1 ((10+1)/r < (100+1)/r).
	s := newFake([]units.Rate{10, 10}, []units.MFlops{0, 0})
	a, cost := (MX{}).ScheduleBatch([]task.Task{tk(0, 10), tk(1, 100), tk(2, 1)}, s)
	if cost != 0 {
		t.Errorf("MX cost = %v", cost)
	}
	if len(a[0]) != 1 || a[0][0].ID != 1 {
		t.Errorf("proc 0 queue = %v, want [task 1]", a[0])
	}
	if len(a[1]) != 2 || a[1][0].ID != 0 || a[1][1].ID != 2 {
		t.Errorf("proc 1 queue = %v, want [task 0, task 2]", a[1])
	}
}

func TestMMPlacesSmallestFirst(t *testing.T) {
	// Same setup; MM sorts ascending: 1→p0, 10→p1, 100→p0? No:
	// after 1→p0 (finish 0.1) and 10→p1 (finish 1.0), task 100:
	// p0 finish (1+100)/10=10.1, p1 finish (10+100)/10=11 → p0.
	s := newFake([]units.Rate{10, 10}, []units.MFlops{0, 0})
	a, _ := (MM{}).ScheduleBatch([]task.Task{tk(0, 10), tk(1, 100), tk(2, 1)}, s)
	if len(a[0]) != 2 || a[0][0].ID != 2 || a[0][1].ID != 1 {
		t.Errorf("proc 0 queue = %v, want [task 2, task 1]", a[0])
	}
	if len(a[1]) != 1 || a[1][0].ID != 0 {
		t.Errorf("proc 1 queue = %v, want [task 0]", a[1])
	}
}

func TestBatchSchedulersRespectExistingLoad(t *testing.T) {
	// Proc 0 is pre-loaded; a single task must land on proc 1.
	s := newFake([]units.Rate{10, 10}, []units.MFlops{1000, 0})
	for _, b := range []Batch{MX{}, MM{}} {
		a, _ := b.ScheduleBatch([]task.Task{tk(0, 10)}, s)
		if len(a[1]) != 1 {
			t.Errorf("%s ignored existing load: %v", b.Name(), a)
		}
	}
}

func TestBatchSchedulersDoNotMutateBatch(t *testing.T) {
	batch := []task.Task{tk(0, 30), tk(1, 10), tk(2, 20)}
	s := newFake([]units.Rate{5, 5}, []units.MFlops{0, 0})
	(MX{}).ScheduleBatch(batch, s)
	if batch[0].ID != 0 || batch[1].ID != 1 || batch[2].ID != 2 {
		t.Errorf("MX mutated caller's batch: %v", batch)
	}
}

func TestBatchSchedulersAssignEveryTaskOnce(t *testing.T) {
	s := newFake([]units.Rate{7, 13, 29}, []units.MFlops{50, 0, 400})
	var batch []task.Task
	for i := 0; i < 100; i++ {
		batch = append(batch, tk(task.ID(i), units.MFlops(1+i%17)))
	}
	for _, b := range []Batch{MX{}, MM{}} {
		a, _ := b.ScheduleBatch(batch, s)
		seen := map[task.ID]int{}
		for _, q := range a {
			for _, tsk := range q {
				seen[tsk.ID]++
			}
		}
		if len(seen) != 100 {
			t.Errorf("%s lost tasks: %d assigned", b.Name(), len(seen))
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("%s assigned task %d %d times", b.Name(), id, n)
			}
		}
	}
}

// greedyByState is greedy list scheduling read from the state task by
// task: a Rate and a load per task and processor, each queue grown by
// append. MM and MX must decide exactly as it does.
func greedyByState(batch []task.Task, s State, sortTasks func([]task.Task)) Assignment {
	sorted := append([]task.Task(nil), batch...)
	sortTasks(sorted)
	loads := make([]units.MFlops, s.M())
	for j := range loads {
		loads[j] = s.PendingLoad(j)
	}
	out := NewAssignment(s.M())
	for _, t := range sorted {
		bestJ, best := 0, units.Inf()
		for j := 0; j < s.M(); j++ {
			if f := (loads[j] + t.Size).TimeOn(s.Rate(j)); f < best {
				bestJ, best = j, f
			}
		}
		out[bestJ] = append(out[bestJ], t)
		loads[bestJ] += t.Size
	}
	return out
}

// TestGreedyBatchMatchesPerTaskReads compares MM and MX with
// greedyByState, and EF with earliestFinisher over a snapshot, on
// random states with equal rates, equal loads and stopped processors.
// Every queue must be capped at its length, so appending to one cannot
// write into its neighbour's.
func TestGreedyBatchMatchesPerTaskReads(t *testing.T) {
	r := rng.New(3)
	for round := 0; round < 300; round++ {
		m := 1 + r.Intn(12)
		s := newFake(make([]units.Rate, m), make([]units.MFlops, m))
		for j := 0; j < m; j++ {
			s.rates[j] = units.Rate(r.Intn(4) * 5) // a quarter stopped
			s.loads[j] = units.MFlops(r.Intn(3) * 20)
		}
		batch := make([]task.Task, r.Intn(60))
		for i := range batch {
			batch[i] = tk(task.ID(i), units.MFlops(1+r.Intn(20)))
		}
		for _, tc := range []struct {
			b    Batch
			sort func([]task.Task)
		}{{MM{}, task.SortBySizeAscending}, {MX{}, task.SortBySizeDescending}} {
			got, _ := tc.b.ScheduleBatch(batch, s)
			if want := greedyByState(batch, s, tc.sort); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s: got %v, want %v", round, tc.b.Name(), got, want)
			}
			for j, q := range got {
				if cap(q) != len(q) {
					t.Fatalf("round %d %s: queue %d has len %d, cap %d", round, tc.b.Name(), j, len(q), cap(q))
				}
			}
		}
		for _, tsk := range batch {
			loads, rates := snapshot(s)
			if got, want := (EF{}).Assign(tsk, s), earliestFinisher(tsk.Size, loads, rates); got != want {
				t.Fatalf("round %d: EF chose %d for %v, earliestFinisher %d", round, got, tsk, want)
			}
		}
	}
}

func TestHeterogeneousRatesUsedByGreedy(t *testing.T) {
	// One fast processor should receive the bulk of the work.
	s := newFake([]units.Rate{100, 1}, []units.MFlops{0, 0})
	var batch []task.Task
	for i := 0; i < 50; i++ {
		batch = append(batch, tk(task.ID(i), 10))
	}
	a, _ := (MM{}).ScheduleBatch(batch, s)
	if len(a[0]) <= len(a[1]) {
		t.Errorf("fast processor got %d tasks, slow got %d", len(a[0]), len(a[1]))
	}
}

func TestFixedBatchSize(t *testing.T) {
	s := newFake([]units.Rate{1}, []units.MFlops{0})
	fb := FixedBatch{Batch: MM{}, Size: 200}
	if got := fb.NextBatchSize(1000, s); got != 200 {
		t.Errorf("NextBatchSize = %d, want 200", got)
	}
	if got := fb.NextBatchSize(50, s); got != 50 {
		t.Errorf("NextBatchSize clamp = %d, want 50", got)
	}
	zero := FixedBatch{Batch: MM{}}
	if got := zero.NextBatchSize(1000, s); got != DefaultBatchSize {
		t.Errorf("default batch = %d, want %d", got, DefaultBatchSize)
	}
}

func TestAssignmentTasks(t *testing.T) {
	a := NewAssignment(3)
	if a.Tasks() != 0 {
		t.Error("empty assignment has tasks")
	}
	a[0] = append(a[0], tk(0, 1))
	a[2] = append(a[2], tk(1, 1), tk(2, 1))
	if a.Tasks() != 3 {
		t.Errorf("Tasks = %d, want 3", a.Tasks())
	}
}

func TestNames(t *testing.T) {
	names := map[string]bool{}
	for _, s := range []Scheduler{EF{}, LL{}, &RR{}, MX{}, MM{}} {
		n := s.Name()
		if n == "" || names[n] {
			t.Errorf("bad or duplicate name %q", n)
		}
		names[n] = true
	}
}
