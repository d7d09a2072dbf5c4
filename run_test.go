package pnsched

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pnsched/internal/core"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/sim"
)

// runDirect drives a pre-built scheduler through the simulator the way
// pre-registry call sites did — the reference the Run equivalence
// tests compare against.
func runDirect(t *testing.T, s Scheduler, w Workload) Result {
	t.Helper()
	cfg := sim.Config{
		Cluster:        w.Cluster,
		Net:            w.Network,
		Tasks:          w.Tasks,
		Scheduler:      s,
		ReissueTimeout: w.ReissueTimeout,
		MaxTime:        w.MaxTime,
	}
	if b, ok := s.(sched.Batch); ok {
		if _, own := s.(sched.BatchSizer); !own {
			cfg.BatchSizer = sched.FixedBatch{Batch: b, Size: sched.DefaultBatchSize}
		}
	}
	return sim.Run(cfg)
}

// TestRunMatchesDirectConstruction is the refactor's regression gate:
// for every registered paper scheduler, a fixed-seed pnsched.Run must
// reproduce exactly the result of hand-constructing the scheduler the
// way cmd/pnsim, the scenario loader and the experiments harness did
// before the registry existed.
func TestRunMatchesDirectConstruction(t *testing.T) {
	const seed = 17
	gaCfg := core.DefaultConfig()
	gaCfg.Generations = 120
	gaCfg.FixedBatch = true
	direct := map[string]func() Scheduler{
		"EF": func() Scheduler { return sched.EF{} },
		"LL": func() Scheduler { return sched.LL{} },
		"RR": func() Scheduler { return &sched.RR{} },
		"ZO": func() Scheduler { return core.NewZO(gaCfg, rng.New(seed)) },
		"PN": func() Scheduler { return core.NewPN(gaCfg, rng.New(seed)) },
		"MM": func() Scheduler { return sched.MM{} },
		"MX": func() Scheduler { return sched.MX{} },
		"PN-ISLAND": func() Scheduler {
			return core.NewPNIsland(gaCfg, core.IslandConfig{Islands: 2}, rng.New(seed))
		},
	}
	for name, mk := range direct {
		w, err := GenerateWorkload(WorkloadConfig{Tasks: 250, Procs: 8, MeanComm: 1, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		want := runDirect(t, mk(), w)

		spec := Spec{Name: name, Generations: 120, Seed: seed}
		if name == "PN-ISLAND" {
			spec.Islands = intp(2)
		}
		w2, err := GenerateWorkload(WorkloadConfig{Tasks: 250, Procs: 8, MeanComm: 1, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), spec, w2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Makespan != want.Makespan || got.Efficiency != want.Efficiency ||
			got.Completed != want.Completed || got.SchedulerBusy != want.SchedulerBusy ||
			got.Invocations != want.Invocations {
			t.Errorf("%s: Run diverged from direct construction:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestRunHonoursFixedSpecBatch: a fixed Spec.Batch is the batch size,
// for every registered batch scheduler alike — the cap of 1000 bounds
// the §3.7 dynamic rule only. PN and PN-ISLAND used to clamp a fixed
// batch to the dynamic rule's cap and turn 1500 into 1000 while ZO, MM,
// MX and SUF honoured it.
func TestRunHonoursFixedSpecBatch(t *testing.T) {
	for _, info := range Infos() {
		if !info.Batch {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			w, err := GenerateWorkload(WorkloadConfig{Tasks: 3000, Procs: 8, MeanComm: 1, Seed: 23})
			if err != nil {
				t.Fatal(err)
			}
			spec := Spec{Name: info.Name, Batch: 1500, Generations: 2, Seed: 3}
			if info.Name == islandName {
				spec.Islands = intp(2)
			}
			largest := 0
			_, err = Run(context.Background(), spec, w, Observe(ObserverFuncs{
				BatchDecided: func(e BatchDecision) { largest = max(largest, e.Tasks) },
			}))
			if err != nil {
				t.Fatal(err)
			}
			if largest != 1500 {
				t.Errorf("largest batch decided = %d, want Spec.Batch 1500", largest)
			}
		})
	}
}

// TestRunDeterministic: identical spec + workload seeds give identical
// results.
func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		w, err := GenerateWorkload(WorkloadConfig{Tasks: 200, Procs: 6, MeanComm: 0.5, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), MustSpec("PN", WithGenerations(80), WithSeed(5)), w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.SchedulerBusy != b.SchedulerBusy {
		t.Errorf("fixed-seed runs diverged: %v vs %v", a.Makespan, b.Makespan)
	}
}

// TestRunObserverEvents: one observer hears the full event stream of a
// run — batch decisions from the simulator, dispatches per task, and
// the GA's generation-best trajectory from the scheduler.
func TestRunObserverEvents(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{Tasks: 220, Procs: 6, MeanComm: 0.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var batches, dispatches, genBests int
	lastBest := Seconds(0)
	res, err := Run(context.Background(),
		MustSpec("PN", WithGenerations(60), WithBatch(100), WithSeed(9)),
		w,
		Observe(ObserverFuncs{
			BatchDecided: func(e BatchDecision) {
				batches++
				if e.Scheduler != "PN" || e.Tasks <= 0 || e.Invocation != batches {
					t.Errorf("bad batch event %+v", e)
				}
			},
			Dispatch:       func(e DispatchEvent) { dispatches++ },
			GenerationBest: func(e GenerationBest) { genBests++; lastBest = e.Makespan },
		}))
	if err != nil {
		t.Fatal(err)
	}
	if batches != res.Invocations {
		t.Errorf("observed %d batch decisions, result says %d", batches, res.Invocations)
	}
	if dispatches != res.Completed {
		t.Errorf("observed %d dispatches for %d completed tasks", dispatches, res.Completed)
	}
	if genBests == 0 || lastBest <= 0 {
		t.Errorf("no generation-best events (got %d, last %v)", genBests, lastBest)
	}
}

// TestRunIslandObserverMigrations: PN-ISLAND runs report ring
// migrations through the same observer.
func TestRunIslandObserverMigrations(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{Tasks: 200, Procs: 6, MeanComm: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var migrants atomic.Int64
	_, err = Run(context.Background(),
		MustSpec("PN-ISLAND",
			WithGenerations(60),
			WithIslands(3),
			WithMigrationInterval(5),
			WithSeed(13)),
		w,
		Observe(ObserverFuncs{
			Migration: func(e MigrationEvent) { migrants.Add(int64(e.Migrants)) },
		}))
	if err != nil {
		t.Fatal(err)
	}
	if migrants.Load() == 0 {
		t.Error("island run reported no migrations")
	}
}

// TestRunBudgetStopObserved: once batches after the first give the GA
// a finite time-until-first-idle budget, exhausting it surfaces as a
// BudgetStop event.
func TestRunBudgetStopObserved(t *testing.T) {
	// Tiny constant tasks keep every queue's time-to-first-idle small,
	// so the GA's modelled evaluation cost exhausts the §3.4 budget
	// long before the (effectively unbounded) generation cap.
	w, err := GenerateWorkload(WorkloadConfig{Tasks: 400, Procs: 6, Sizes: Constant{Size: 2}, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	var stops int
	var lastStop BudgetStopEvent
	_, err = Run(context.Background(),
		MustSpec("PN", WithGenerations(100000), WithBatch(50), WithSeed(21)),
		w,
		Observe(ObserverFuncs{
			BudgetStop: func(e BudgetStopEvent) { stops++; lastStop = e },
		}))
	if err != nil {
		t.Fatal(err)
	}
	if stops == 0 {
		t.Fatal("no BudgetStop events despite an effectively unbounded generation cap")
	}
	if lastStop.Spent > lastStop.Budget {
		t.Errorf("budget stop overran its budget: spent %v of %v", lastStop.Spent, lastStop.Budget)
	}
}

// TestRunContextCancel: a cancelled context aborts the run and
// surfaces as the returned error.
func TestRunContextCancel(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{Tasks: 300, Procs: 6, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, MustSpec("EF"), w)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Completed != 0 {
		t.Errorf("pre-cancelled run completed %d tasks", res.Completed)
	}
}

// TestRunRejectsBadWorkloads: the validation is centralized, not
// panicking inside the simulator.
func TestRunRejectsBadWorkloads(t *testing.T) {
	good, err := GenerateWorkload(WorkloadConfig{Tasks: 10, Procs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nan := append([]Task(nil), good.Tasks...)
	nan[3].Arrival = Seconds(math.NaN())
	cases := map[string]Workload{
		"no cluster":  {Network: good.Network, Tasks: good.Tasks},
		"no network":  {Cluster: good.Cluster, Tasks: good.Tasks},
		"no tasks":    {Cluster: good.Cluster, Network: good.Network},
		"NaN arrival": {Cluster: good.Cluster, Network: good.Network, Tasks: nan},
	}
	for name, w := range cases {
		if _, err := Run(context.Background(), MustSpec("EF"), w); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := GenerateWorkload(WorkloadConfig{RateLo: 5, RateHi: 1, Seed: 1}); err == nil {
		t.Error("inverted rate range accepted")
	}
	if _, err := GenerateWorkload(WorkloadConfig{MeanComm: -1, Seed: 1}); err == nil {
		t.Error("negative comm accepted")
	}
}

// TestRunGATaskIDsAreOpaque: a GA chromosome names a task by its
// position in the batch, so the IDs a caller gives its tasks —
// repeated, sparse or shuffled — leave a GA run's Result unchanged,
// and a negative ID is refused with an error rather than a panic.
func TestRunGATaskIDsAreOpaque(t *testing.T) {
	const n = 300
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng.New(7).ShuffleInts(perm)
	schemes := map[string]func(i int) TaskID{
		"repeated": func(i int) TaskID { return TaskID(i / 2) },
		"sparse":   func(i int) TaskID { return TaskID(i * 100003) },
		"shuffled": func(i int) TaskID { return TaskID(perm[i]) },
	}
	workload := func(id func(i int) TaskID) Workload {
		w, err := GenerateWorkload(WorkloadConfig{Tasks: n, Procs: 8, MeanComm: 1, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Tasks {
			w.Tasks[i].ID = id(i)
		}
		return w
	}
	for _, name := range []string{"PN", "ZO", islandName} {
		spec := Spec{Name: name, Generations: 40, Seed: 5}
		if name == islandName {
			spec.Islands = intp(2)
		}
		want, err := Run(context.Background(), spec, workload(func(i int) TaskID { return TaskID(i) }))
		if err != nil || want.Completed != n {
			t.Fatalf("%s: completed %d of %d tasks (%v)", name, want.Completed, n, err)
		}
		for scheme, id := range schemes {
			got, err := Run(context.Background(), spec, workload(id))
			if err != nil {
				t.Fatalf("%s, %s ids: %v", name, scheme, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s ids: Result diverged from ids 0…n−1:\n got %+v\nwant %+v", name, scheme, got, want)
			}
		}
		_, err = Run(context.Background(), spec, workload(func(i int) TaskID { return TaskID(-i - 2) }))
		if err == nil || !strings.Contains(err.Error(), "task -2 ") {
			t.Errorf("%s: negative ids gave %v, want an error naming task -2", name, err)
		}
	}
}
