package core

import (
	"slices"
	"testing"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// screenKinds names the problem families screenCase builds, each aimed
// at a place where StepSlot's O(1) screen could go wrong.
var screenKinds = []string{
	"random",        // randomProblem's full surface
	"ties",          // two sizes, one non-dyadic rate: exact and near ties
	"balanced",      // every queue alike, Σ(ψ − Cⱼ)² ≈ 0
	"huge-loads",    // prior loads dwarf the batch
	"zero-rate",     // a stopped processor: non-finite times
	"no-comm",       // IncludeComm false
	"sparse-ids",    // sparse task ids, which the GA never reads
	"negative-comm", // Γc < 0, so times can cancel to near zero
	"many-procs",    // M in the hundreds to thousands
}

// screenCase builds one problem of family kind and a chromosome to
// rebalance, drawn from seed.
func screenCase(seed uint64, kind int) (*Problem, ga.Chromosome) {
	r := rng.New(seed)
	n, m := 12+r.Intn(60), 2+r.Intn(8)
	if screenKinds[kind] == "random" {
		p := randomProblem(seed)
		return p, ListPopulation(p, 1, r)[0]
	}
	if screenKinds[kind] == "many-procs" {
		m = 200 + r.Intn(1800)
		n = m + r.Intn(m)
	}
	sizes := make([]units.MFlops, n)
	for i := range sizes {
		sizes[i] = units.MFlops(r.Uniform(10, 1000))
	}
	rates := make([]units.Rate, m)
	loads := make([]units.MFlops, m)
	comm := make([]units.Seconds, m)
	for j := range rates {
		rates[j] = units.Rate(r.Uniform(10, 100))
		comm[j] = units.Seconds(r.Uniform(0.1, 2))
	}
	includeComm := true
	var c ga.Chromosome
	switch screenKinds[kind] {
	case "ties":
		for i := range sizes {
			sizes[i] = 0.1 * units.MFlops(1+r.Intn(2))
		}
		for j := range rates {
			rates[j] = 0.3
		}
		includeComm = false
	case "balanced":
		// Each queue holds the same sizes in the same order, on equal
		// rates and links.
		per := 1 + n/m
		n = per * m
		sizes = make([]units.MFlops, n)
		for i := range sizes {
			sizes[i] = units.MFlops(10 + 7*(i%per))
		}
		queues := make([][]int, m)
		for i := range sizes {
			queues[i/per] = append(queues[i/per], i)
		}
		for j := range rates {
			rates[j], comm[j] = 30, 0.5
		}
		c = encode(queues)
	case "huge-loads":
		for j := range loads {
			loads[j] = units.MFlops(r.Uniform(1e9, 1e12))
		}
	case "zero-rate":
		rates[r.Intn(m)] = 0
	case "no-comm":
		includeComm = false
	case "negative-comm":
		for j := range comm {
			comm[j] = units.Seconds(r.Uniform(-40, 0))
		}
	}
	stride := task.ID(1)
	if screenKinds[kind] == "sparse-ids" {
		stride = 1000
	}
	batch := make([]task.Task, n)
	for i := range batch {
		batch[i] = task.Task{ID: task.ID(i) * stride, Size: sizes[i]}
	}
	p := BuildProblem(batch, rates, loads, comm, includeComm)
	if c == nil {
		c = RandomPopulation(p, 1, r)[0]
	}
	return p, c
}

// matchScreen runs the standalone Step and the screened StepSlot side
// by side from one chromosome, each on its own RNG seeded alike, and
// fails at the first step where they keep or revert differently, leave
// different chromosomes, count different probes, or where the RNGs end
// apart.
func matchScreen(t *testing.T, seed uint64, kind, steps int) {
	t.Helper()
	p, c1 := screenCase(seed, kind)
	c2 := c1.Clone()
	naive := newNaiveRebalancer(p)
	ev := NewIncrementalEvaluator(p)
	ev.InitSlots(1)
	ev.FitnessSlot(0, c2)
	slot := NewRebalancer(p)
	slot.BindSlots(ev)
	r1, r2 := rng.New(seed^0x5c2ee7), rng.New(seed^0x5c2ee7)
	for step := 0; step < steps; step++ {
		kept1 := naive.Step(c1, r1)
		kept2 := slot.StepSlot(0, c2, r2)
		// Step scores before and after, StepSlot only after.
		if kept1 != kept2 || !slices.Equal(c1, c2) || naive.Evals != 2*slot.Evals {
			t.Fatalf("%s seed %d step %d: Step kept %v (%d evals), StepSlot kept %v (%d probes)",
				screenKinds[kind], seed, step, kept1, naive.Evals, kept2, slot.Evals)
		}
	}
	if a, b := r1.Uint64(), r2.Uint64(); a != b {
		t.Fatalf("%s seed %d: the RNGs ended apart", screenKinds[kind], seed)
	}
}

// FuzzRebalanceScreen holds StepSlot, screen included, to the
// unscreened standalone Step on every problem family of screenKinds.
func FuzzRebalanceScreen(f *testing.F) {
	for kind := range screenKinds {
		f.Add(uint64(kind)*7919+1, uint8(kind), uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed uint64, kind, steps uint8) {
		matchScreen(t, seed, int(kind)%len(screenKinds), 1+int(steps%64))
	})
}
