package core

import (
	"slices"
	"testing"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

func TestRebalanceImprovesLopsidedSchedule(t *testing.T) {
	// Everything dumped on proc 0; rebalancing must spread it out.
	batch := mkBatch(100, 90, 80, 70, 60, 50, 40, 30, 20, 10)
	p := BuildProblem(batch, []units.Rate{10, 10, 10}, nil, nil, false)
	var ids []int
	for i := range batch {
		ids = append(ids, i)
	}
	// One large task on each other queue so swaps have partners.
	c := encode([][]int{ids[:8], {ids[8]}, {ids[9]}})

	rb := newNaiveRebalancer(p)
	r := rng.New(1)
	before := p.MakespanInto(c, nil)
	kept := rb.Apply(c, 200, r)
	after := p.MakespanInto(c, nil)
	if kept == 0 {
		t.Fatal("no rebalancing swap ever kept")
	}
	if after >= before {
		t.Errorf("makespan did not improve: %v → %v", before, after)
	}
	if err := c.ValidatePermutation(); err != nil {
		t.Errorf("rebalancing corrupted chromosome: %v", err)
	}
}

func TestRebalancePreservesTaskSet(t *testing.T) {
	batch := mkBatch(55, 44, 33, 22, 11, 66, 77, 88)
	p := BuildProblem(batch, []units.Rate{5, 15}, nil, nil, false)
	pop := ListPopulation(p, 5, rng.New(2))
	rb := newNaiveRebalancer(p)
	r := rng.New(3)
	ref := pop[0].Clone()
	for _, c := range pop {
		rb.Apply(c, 50, r)
		if !c.IsPermutationOf(ref) {
			t.Fatalf("rebalancing changed the symbol multiset: %v", c)
		}
	}
}

func TestRebalanceNeverWorsensFitness(t *testing.T) {
	// §3.5: "If the resulting schedule is fitter, it is kept." So the
	// fitness after any number of steps must be >= before.
	p := benchProblem(60, 6, 4)
	pop := ListPopulation(p, 10, rng.New(5))
	rb := newNaiveRebalancer(p)
	r := rng.New(6)
	for _, c := range pop {
		before := p.Fitness(c)
		rb.Apply(c, 20, r)
		after := p.Fitness(c)
		if after < before-1e-12 {
			t.Fatalf("rebalancing worsened fitness: %v → %v", before, after)
		}
	}
}

func TestRebalanceNoSwapWhenUniform(t *testing.T) {
	// All tasks identical: no "smaller" task exists, so no swap is
	// possible.
	batch := mkBatch(50, 50, 50, 50)
	p := BuildProblem(batch, []units.Rate{10, 10}, nil, nil, false)
	c := encode([][]int{{0, 1, 2}, {3}})
	rb := newNaiveRebalancer(p)
	if rb.Step(c, rng.New(7)) {
		t.Error("swap kept despite all-equal task sizes")
	}
}

func TestRebalanceEmptyQueues(t *testing.T) {
	// Heavy queue holds everything, others empty: no partner to swap
	// with (other queues have no tasks).
	batch := mkBatch(10, 20, 30)
	p := BuildProblem(batch, []units.Rate{10, 10}, nil, nil, false)
	c := encode([][]int{{0, 1, 2}, {}})
	rb := newNaiveRebalancer(p)
	if rb.Step(c, rng.New(8)) {
		t.Error("swap reported with no partner tasks")
	}
	if err := c.ValidatePermutation(); err != nil {
		t.Errorf("chromosome corrupted: %v", err)
	}
}

func TestRebalanceCountsEvals(t *testing.T) {
	p := benchProblem(40, 4, 9)
	pop := ListPopulation(p, 5, rng.New(10))
	rb := newNaiveRebalancer(p)
	r := rng.New(11)
	for _, c := range pop {
		rb.Apply(c, 10, r)
	}
	if rb.Evals == 0 {
		t.Error("no fitness evaluations counted")
	}
	if rb.Evals%2 != 0 {
		t.Errorf("evals = %d, want even (before/after pairs)", rb.Evals)
	}
}

func TestRebalanceSingleProcessor(t *testing.T) {
	batch := mkBatch(10, 20)
	p := BuildProblem(batch, []units.Rate{5}, nil, nil, false)
	c := encode([][]int{{0, 1}})
	rb := newNaiveRebalancer(p)
	if rb.Step(c, rng.New(12)) {
		t.Error("swap on single-processor schedule")
	}
}

func TestRebalanceDeterministic(t *testing.T) {
	run := func() ga.Chromosome {
		p := benchProblem(50, 5, 13)
		pop := ListPopulation(p, 1, rng.New(14))
		c := pop[0]
		newNaiveRebalancer(p).Apply(c, 30, rng.New(15))
		return c
	}
	if !slices.Equal(run(), run()) {
		t.Error("rebalancing not deterministic under fixed seeds")
	}
}

func TestRebalanceTargetsHeavyProcessor(t *testing.T) {
	// Proc 0 is overloaded with big tasks; proc 1 has small ones. Any
	// kept swap must reduce the completion time of the heavy queue.
	batch := []task.Task{
		{ID: 0, Size: 500}, {ID: 1, Size: 400}, {ID: 2, Size: 300},
		{ID: 3, Size: 10}, {ID: 4, Size: 20},
	}
	p := BuildProblem(batch, []units.Rate{10, 10}, nil, nil, false)
	c := encode([][]int{{0, 1, 2}, {3, 4}})
	times := p.CompletionTimes(c, nil)
	heavyBefore := max(times[0], times[1])
	rb := newNaiveRebalancer(p)
	r := rng.New(16)
	for i := 0; i < 50; i++ {
		rb.Step(c, r)
	}
	times = p.CompletionTimes(c, nil)
	heavyAfter := max(times[0], times[1])
	if heavyAfter >= heavyBefore {
		t.Errorf("heavy completion did not drop: %v → %v", heavyBefore, heavyAfter)
	}
}

// walkOtherPosition is the linear walk StepSlot used before otherTask:
// it maps k, an index into the increasing sequence of task positions
// outside the heavy segment, back to a chromosome position by skipping
// whole segments. It is the oracle TestOtherTaskMatchesWalk holds the
// one-search mapping to.
func walkOtherPosition(c ga.Chromosome, delims []int, heavy, k int) int {
	for seg := 0; seg <= len(delims); seg++ {
		if seg == heavy {
			continue
		}
		lo, hi := segmentSpan(c, delims, seg)
		if k < hi-lo {
			return lo + k
		}
		k -= hi - lo
	}
	panic("core: rebalance position index out of range")
}

// TestOtherTaskMatchesWalk: for random delimiter layouts — empty
// queues at either end and in the middle, the heavy queue first, last
// or anywhere — otherTask finds the position the segment walk finds for
// every k, and the queue a search of the delimiters puts it in.
func TestOtherTaskMatchesWalk(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 500; trial++ {
		m := 1 + r.Intn(9)
		n := r.Intn(12)
		c := encode(randomQueues(n, m, r))
		var delims []int
		for i, sym := range c {
			if sym < 0 {
				delims = append(delims, i)
			}
		}
		for heavy := 0; heavy < m; heavy++ {
			heavyLo, heavyHi := segmentSpan(c, delims, heavy)
			otherLen := n - (heavyHi - heavyLo)
			for k := 0; k < otherLen; k++ {
				pos, queue := otherTask(delims, heavy, heavyLo, heavyHi-heavyLo, k)
				want := walkOtherPosition(c, delims, heavy, k)
				if pos != want || queue != segmentOf(delims, want) || queue == heavy {
					t.Fatalf("%v heavy %d k %d: otherTask = (%d, %d), walk = (%d, %d)",
						c, heavy, k, pos, queue, want, segmentOf(delims, want))
				}
			}
		}
	}
}

// randomQueues deals tasks 0…n−1 onto m queues, many of them left
// empty.
func randomQueues(n, m int, r *rng.RNG) [][]int {
	queues := make([][]int, m)
	for id := 0; id < n; id++ {
		j := r.Intn(m)
		if r.Intn(3) == 0 {
			j = 0 // crowd the first queue so the others run empty
		}
		queues[j] = append(queues[j], id)
	}
	return queues
}
