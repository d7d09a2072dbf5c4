package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// The values a reuse sequence draws its shapes from: batch sizes,
// cluster sizes, populations and rebalance counts.
var (
	reuseTasks      = []int{1, 7, 200, 1000}
	reuseProcs      = []int{1, 2, 8, 50}
	reusePops       = []int{1, 2, 20, 37}
	reuseRebalances = []int{0, 1, 3}
)

// Which entry point a reuseShape calls.
const (
	callEvolve = iota // Evolve on a list-seeded population
	callPN            // PN.ScheduleBatch
	callZO            // ZO.ScheduleBatch: Γc left out, random seeds
	callKinds
)

// reuseShape is one call of a sequence run through pooled workspaces.
type reuseShape struct {
	call                 int
	tasks, procs, pop    int
	rebalances, gens     int
	comm, finite, listen bool // Γc in the problem (Evolve only), a finite budget, an Observer
	seed                 uint64
}

func (sh reuseShape) String() string {
	return fmt.Sprintf("call%d/H=%d/M=%d/pop=%d/rb=%d/gens=%d/comm=%v/finite=%v/observer=%v/seed=%d",
		sh.call, sh.tasks, sh.procs, sh.pop, sh.rebalances, sh.gens, sh.comm, sh.finite, sh.listen, sh.seed)
}

// reuseResult is everything a call reports: the statistics of an
// Evolve, the assignment and cost of a ScheduleBatch, and the events
// its observer heard, in order.
type reuseResult struct {
	stats  EvolveStats
	assign sched.Assignment
	cost   units.Seconds
	events []any
}

// run makes the call in w, or through the exported entry points and so
// the package's pool when w is nil.
func (sh reuseShape) run(w *workspace) reuseResult {
	r := rng.New(sh.seed)
	batch := workload.Generate(workload.Spec{N: sh.tasks, Sizes: workload.Uniform{Lo: 10, Hi: 1000}}, r.Stream(1))
	s := &stubState{m: sh.procs, rates: make([]units.Rate, sh.procs), loads: make([]units.MFlops, sh.procs),
		comm: make([]units.Seconds, sh.procs), firstIdle: units.Inf()}
	sr := r.Stream(2)
	for j := range s.rates {
		s.rates[j] = units.Rate(sr.Uniform(50, 500))
		s.loads[j] = units.MFlops(sr.Uniform(0, 300))
		s.comm[j] = units.Seconds(sr.Uniform(0.1, 2))
	}
	cfg := DefaultConfig()
	cfg.Population, cfg.Generations, cfg.Rebalances = sh.pop, sh.gens, sh.rebalances
	if sh.finite {
		// The worst generation the budget predicate reserves for, plus
		// two full population sweeps: generation 1 runs, and the budget
		// stops the run a few generations on.
		genes := ChromosomeLen(sh.tasks, sh.procs)
		s.firstIdle = cfg.cost(genes*(sh.pop*(1+2*sh.rebalances)+1) + 2*genes*sh.pop)
	}
	var res reuseResult
	if sh.listen {
		record := func(e any) { res.events = append(res.events, e) }
		cfg.Observer = observe.Funcs{
			GenerationBest: func(e observe.GenerationBest) { record(e) },
			BudgetStop:     func(e observe.BudgetStop) { record(e) },
			EvolveDone:     func(e observe.EvolveDone) { record(e) },
		}
	}
	switch sh.call {
	case callEvolve:
		p := NewProblem(batch, s, sh.comm)
		initial := ListPopulation(p, sh.pop, r)
		if w == nil {
			res.stats = Evolve(p, cfg, initial, s.firstIdle, r)
		} else {
			res.stats = w.evolve(p, cfg, initial, s.firstIdle, r)
		}
	default:
		pn := NewPN(cfg, r)
		if sh.call == callZO {
			pn = NewZO(cfg, r)
		}
		if w == nil {
			res.assign, res.cost = pn.ScheduleBatch(batch, s)
		} else {
			res.assign, res.cost = pn.scheduleIn(w, batch, s)
		}
	}
	return res
}

// reuseSequence is a shuffled sequence of shapes in which every batch
// size, cluster size, population and rebalance count appears, every
// call with Γc on and off (ZO always off), with a finite and an
// infinite budget, and with an observer and without.
func reuseSequence(gens int) []reuseShape {
	var seq []reuseShape
	for i := range 24 {
		seq = append(seq, reuseShape{
			call:       i % callKinds,
			tasks:      reuseTasks[i%4],
			procs:      reuseProcs[(i/4)%4],
			pop:        reusePops[(i+i/4)%4],
			rebalances: reuseRebalances[(i/2)%3],
			gens:       gens,
			comm:       (i/3)%2 == 0,
			finite:     (i/6)%2 == 0,
			listen:     (i/12)%2 == 0,
			seed:       uint64(100 + i),
		})
	}
	rng.New(7).Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
	return seq
}

// checkReuse runs seq in order, each call in the workspace get returns
// (nil: through the pool), and compares every result with want, the
// same calls each in a fresh workspace.
func checkReuse(t *testing.T, seq []reuseShape, want []reuseResult, get func() *workspace) {
	t.Helper()
	for i, sh := range seq {
		if got := sh.run(get()); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("call %d (%v) in a reused workspace:\n got  %+v\n want %+v", i, sh, got, want[i])
		}
	}
}

func freshResults(seq []reuseShape) []reuseResult {
	want := make([]reuseResult, len(seq))
	for i, sh := range seq {
		want[i] = sh.run(new(workspace))
	}
	return want
}

// TestWorkspaceReuse: a sequence of Evolve and ScheduleBatch calls of
// changing shapes, run through the pool and in one workspace reused
// throughout, reports exactly what each call reports in a fresh
// workspace — every EvolveStats field (the gene ledger among them),
// every assignment and cost, and every observed event.
func TestWorkspaceReuse(t *testing.T) {
	seq := reuseSequence(8)
	want := freshResults(seq)
	t.Run("pool", func(t *testing.T) {
		checkReuse(t, seq, want, func() *workspace { return nil })
	})
	t.Run("one workspace", func(t *testing.T) {
		w := new(workspace)
		checkReuse(t, seq, want, func() *workspace { return w })
	})
}

// TestWorkspaceReuseConcurrent: the same sequence through the pool from
// four goroutines at once (under -race in `make race`).
func TestWorkspaceReuseConcurrent(t *testing.T) {
	seq := reuseSequence(4)
	want := freshResults(seq)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := append([]reuseShape(nil), seq...)
			wantOrder := append([]reuseResult(nil), want...)
			rng.New(uint64(g)).Shuffle(len(order), func(a, b int) {
				order[a], order[b] = order[b], order[a]
				wantOrder[a], wantOrder[b] = wantOrder[b], wantOrder[a]
			})
			checkReuse(t, order, wantOrder, func() *workspace { return nil })
		}()
	}
	wg.Wait()
}

// TestScheduleBatchAllocations pins what one steady-state PN decision
// at H=200 allocates at both BenchmarkScheduleBatchPN shapes: at most
// 32 objects and 40 KiB, the Problem snapshot, the best chromosome and
// the assignment. A buffer of the GA's own — the engine's slots, the
// slot caches, the seeds — that stops being reused costs far more. The
// race detector drops pooled items at random, so the pin is skipped
// under -race.
func TestScheduleBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled workspaces")
	}
	for _, shape := range pnBenchShapes {
		t.Run(fmt.Sprintf("M=%d", shape.procs), func(t *testing.T) {
			batch, s := pnBenchInput(shape.procs)
			cfg := DefaultConfig()
			cfg.Generations = 20
			pn := NewPN(cfg, rng.New(3))
			decide := func() { pn.ScheduleBatch(batch, s) }
			decide()
			objects := testing.AllocsPerRun(20, decide)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 20
			for range runs {
				decide()
			}
			runtime.ReadMemStats(&after)
			kib := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
			if objects > 32 || kib > 40 {
				t.Errorf("a steady-state decision allocates %v objects and %.1f KiB, want at most 32 and 40", objects, kib)
			}
		})
	}
}

// TestAssignmentLayout: Problem.Assignment holds Decode's queues in
// Decode's order, each capped at its own length — an append to one
// queue cannot reach the next — and nil where a processor gets nothing.
func TestAssignmentLayout(t *testing.T) {
	p := benchProblem(30, 6, 11)
	chroms := ListPopulation(p, 4, rng.New(12))
	// Queues 0, 2 and 5 empty: the delimiters lead, sit side by side
	// and trail.
	tasks := make([]int, 0, 30)
	for _, sym := range chroms[0] {
		if sym >= 0 {
			tasks = append(tasks, sym)
		}
	}
	sparse := append([]int{Delimiter(1)}, tasks[:10]...)
	sparse = append(sparse, Delimiter(2), Delimiter(3))
	sparse = append(sparse, tasks[10:20]...)
	sparse = append(sparse, Delimiter(4))
	sparse = append(sparse, tasks[20:]...)
	sparse = append(sparse, Delimiter(5))
	chroms = append(chroms, sparse)
	for k, c := range chroms {
		a := p.Assignment(c)
		queues := Decode(c, p.M)
		if len(a) != p.M {
			t.Fatalf("chromosome %d: %d queues, want %d", k, len(a), p.M)
		}
		for j, q := range a {
			if len(queues[j]) == 0 {
				if q != nil {
					t.Errorf("chromosome %d: empty queue %d is %v, want nil", k, j, q)
				}
				continue
			}
			if cap(q) != len(q) {
				t.Errorf("chromosome %d: queue %d has cap %d, length %d", k, j, cap(q), len(q))
			}
			if len(q) != len(queues[j]) {
				t.Fatalf("chromosome %d: queue %d holds %d tasks, Decode %d", k, j, len(q), len(queues[j]))
			}
			for i, tk := range q {
				if tk != p.Batch[queues[j][i]] {
					t.Errorf("chromosome %d: queue %d task %d is %v, Decode has position %d", k, j, i, tk, queues[j][i])
				}
			}
		}
	}
}

// FuzzWorkspaceReuse decodes a sequence of up to eight shapes from its
// input — three bytes each: the call, Γc, budget, observer and
// rebalance count; the batch size, cluster size and population; the
// seed — and runs it in one workspace reused throughout, against each
// call in a fresh one, as TestWorkspaceReuse does. Three generations
// keep each input fast.
func FuzzWorkspaceReuse(f *testing.F) {
	shape := func(call, rb, h, m, pop int, comm, finite, listen bool, seed byte) []byte {
		b0 := call | rb<<5
		for k, on := range []bool{comm, finite, listen} {
			if on {
				b0 |= 1 << (2 + k)
			}
		}
		return []byte{byte(b0), byte(h | m<<2 | pop<<4), seed}
	}
	join := func(shapes ...[]byte) []byte {
		var b []byte
		for _, s := range shapes {
			b = append(b, s...)
		}
		return b
	}
	// Growing, shrinking and changing shape between calls.
	f.Add(join(shape(callEvolve, 1, 2, 3, 2, true, false, true, 1), shape(callPN, 0, 0, 0, 0, false, true, false, 2)))
	f.Add(join(shape(callPN, 3, 3, 3, 3, false, false, false, 3), shape(callEvolve, 2, 1, 1, 1, false, true, true, 4),
		shape(callZO, 0, 3, 2, 2, false, false, true, 5)))
	f.Add(join(shape(callZO, 0, 1, 2, 3, false, true, false, 6), shape(callPN, 1, 2, 1, 0, false, false, true, 7),
		shape(callEvolve, 1, 3, 0, 2, true, true, false, 8), shape(callEvolve, 1, 3, 0, 2, true, true, false, 8)))
	f.Fuzz(func(t *testing.T, in []byte) {
		var seq []reuseShape
		for len(in) >= 3 && len(seq) < 8 {
			b0, b1 := int(in[0]), int(in[1])
			seq = append(seq, reuseShape{
				call:       (b0 & 3) % callKinds,
				comm:       b0&4 != 0,
				finite:     b0&8 != 0,
				listen:     b0&16 != 0,
				rebalances: reuseRebalances[(b0>>5)%3],
				tasks:      reuseTasks[b1&3],
				procs:      reuseProcs[(b1>>2)&3],
				pop:        reusePops[(b1>>4)&3],
				gens:       3,
				seed:       uint64(in[2]),
			})
			in = in[3:]
		}
		w := new(workspace)
		checkReuse(t, seq, freshResults(seq), func() *workspace { return w })
	})
}
