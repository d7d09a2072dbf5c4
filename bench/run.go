package main

import (
	"fmt"
	"os"
	"path/filepath"
	"pnsched/internal/stats"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRepeats is how many times an untraced run sets the system up;
// setup_s is the median, so one slow start does not decide it.
const setupRepeats = 3

// runConfig is one benchmark run.
type runConfig struct {
	def     workloadDef
	seed    uint64
	seconds float64 // measured phase length; the least op count still runs when it is shorter
	trace   bool
	outDir  string // journal directories and the trace file go here
	// scale shrinks every fixed count — the workload's ops and the
	// probes' loops — by one factor; 0 means full size. Only the tests
	// set it.
	scale float64
}

// count scales one of the harness's fixed counts, never below 1.
func (c runConfig) count(n int) int {
	if c.scale <= 0 {
		return n
	}
	return max(1, int(float64(n)*c.scale))
}

// phase is one driven stretch of ops with the process counters around
// it.
type phase struct {
	ops        []opResult // in completion order
	start, end time.Time
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	cpu        time.Duration
}

func (p *phase) tasks() (n int) {
	for _, op := range p.ops {
		if op.err == nil {
			n += op.tasks
		}
	}
	return n
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs ops closed-loop from def.clients callers: each takes the
// next op index when its previous op has completed. It stops after
// minOps ops once d has elapsed, on a whole cycle of the task mix so
// per-task figures always average the same mix.
func drive(sys system, def workloadDef, minOps int, d time.Duration) phase {
	var ms0, ms1 runtime.MemStats
	cycle := max(1, len(def.taskCycle))
	perClient := make([][]opResult, def.clients)
	var next atomic.Int64
	var wg sync.WaitGroup

	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	p := phase{start: time.Now()}
	deadline := p.start.Add(d)
	for c := 0; c < def.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= minOps && i%cycle == 0 && !time.Now().Before(deadline) {
					return
				}
				perClient[c] = append(perClient[c], sys.op(i))
			}
		}(c)
	}
	wg.Wait()
	p.end = time.Now()
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = ms1.NumGC - ms0.NumGC

	for _, ops := range perClient {
		p.ops = append(p.ops, ops...)
	}
	sort.Slice(p.ops, func(a, b int) bool {
		return p.ops[a].start.Add(p.ops[a].lat).Before(p.ops[b].start.Add(p.ops[b].lat))
	})
	return p
}

// block is a stretch of consecutively completed ops.
type block struct {
	ops       []opResult
	tasksPerS float64
}

// blocks cuts the phase into blocks of n completed ops, each with its
// tasks per second (from the previous block's last completion to its
// own).
func (p *phase) blocks(n int) []block {
	var out []block
	prev := p.start
	for lo := 0; lo+n <= len(p.ops); lo += n {
		b := block{ops: p.ops[lo : lo+n]}
		tasks := 0
		for _, op := range b.ops {
			if op.err == nil {
				tasks += op.tasks
			}
		}
		last := b.ops[n-1]
		end := last.start.Add(last.lat)
		b.tasksPerS = ratio(float64(tasks), end.Sub(prev).Seconds())
		out = append(out, b)
		prev = end
	}
	return out
}

// quietBlocks keeps the fastest third of the blocks. On a shared
// machine interference only ever slows a stretch of the run down, for
// seconds at a time; timing taken over the stretches it spared varies
// about half as much between runs as timing over the whole phase
// (measured; see README, "Noise").
//
// Only blocks that did the same work are compared: on sim-* the inputs
// differ in cost by some ±10 % and repeat every `groups` blocks, so
// block i competes with blocks i±groups, i±2·groups, … and every input
// keeps its fastest passes. Live jobs are interchangeable: one group.
func quietBlocks(bs []block, groups int) []block {
	var keep []block
	for g := 0; g < groups && g < len(bs); g++ {
		var same []block
		for i := g; i < len(bs); i += groups {
			same = append(same, bs[i])
		}
		sort.Slice(same, func(a, b int) bool { return same[a].tasksPerS > same[b].tasksPerS })
		keep = append(keep, same[:max(1, len(same)/3)]...)
	}
	return keep
}

// setUp generates the inputs, starts the program and its workers, runs
// the warm-up and collects garbage — everything a run pays before its
// first measured op.
func setUp(cfg runConfig, rec *recorder, attempt int) (system, *inputs, error) {
	def := cfg.def
	in, err := generate(def, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	var sys system
	switch def.kind {
	case kindSim:
		sys = &simSystem{def: def, in: in, seed: cfg.seed}
	case kindStream:
		sys, err = startStream(def, in, cfg.seed, observerOf(rec))
	case kindSvc:
		dir := ""
		if def.journal {
			dir = filepath.Join(cfg.outDir, fmt.Sprintf("journal-%s-%d-%d", def.name, os.Getpid(), attempt))
			if err = os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
		sys, err = startSvc(def, in, cfg.seed, dir, observerOf(rec))
	}
	if err != nil {
		return nil, nil, err
	}
	warm := drive(sys, def, def.warmup, 0)
	for _, op := range warm.ops {
		if op.err != nil {
			sys.close()
			return nil, nil, fmt.Errorf("warm-up: %w", op.err)
		}
	}
	if svc, ok := sys.(*svcSystem); ok && def.journal {
		// The replay a restart pays belongs to set-up: close, then serve
		// again from the journal the warm-up wrote.
		if err := svc.restart(warm.ops[len(warm.ops)-1].id); err != nil {
			sys.close()
			return nil, nil, err
		}
	}
	runtime.GC()
	return sys, in, nil
}

// tearDown closes the system and removes its journal directory.
func tearDown(sys system) error {
	err := sys.close()
	if svc, ok := sys.(*svcSystem); ok && svc.dir != "" {
		if rerr := os.RemoveAll(svc.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// run performs one benchmark run and returns its result; an error means
// the harness itself could not run, a failed check is reported in the
// result.
func run(cfg runConfig) (*result, error) {
	if cfg.scale > 0 {
		cfg.def = cfg.def.scaled(cfg.scale)
	}
	def := cfg.def
	res := newResult(cfg)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	calib := calibrate(cfg.count(40_000_000))

	var rec *recorder
	repeats := setupRepeats
	if cfg.trace {
		rec = newRecorder(def.maxActive == 1)
		repeats = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var sys system
	var in *inputs
	var setups []float64
	for k := 0; k < repeats; k++ {
		if sys != nil {
			if err := tearDown(sys); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		sys, in, err = setUp(cfg, rec, k)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if sys != nil {
			tearDown(sys)
		}
	}()
	res.InputHash = fmt.Sprintf("%016x", in.hash)

	before, err := sys.counters()
	if err != nil {
		return nil, err
	}
	length := time.Duration(cfg.seconds * float64(time.Second))
	var measured phase
	var untraced []phase
	if cfg.trace {
		// A quarter-size phase with the recorder on, between two
		// eighth-size phases with it off: the per-layer numbers come from
		// the traced phase, the tracing overhead from the difference, and
		// a program that drifts as it runs (svc-journal's snapshots grow
		// for its first seconds) drifts on both sides of the comparison.
		quarter, eighth := def.scaled(0.25), def.scaled(0.125)
		untraced = append(untraced, drive(sys, def, eighth.minOps, length/8))
		if before, err = sys.counters(); err != nil {
			return nil, err
		}
		rec.on.Store(true)
		sim, _ := sys.(*simSystem)
		if sim != nil {
			sim.rec, simRecorder = rec, rec
		}
		measured = drive(sys, def, quarter.minOps, length/4)
		rec.on.Store(false)
		if sim != nil {
			sim.rec = nil
		}
	} else {
		measured = drive(sys, def, def.minOps, length)
	}
	after, err := sys.counters()
	if err != nil {
		return nil, err
	}
	delta := map[string]float64{}
	for name, v := range after {
		delta[name] = v - before[name]
	}
	if cfg.trace {
		untraced = append(untraced, drive(sys, def, def.scaled(0.125).minOps, length/8))
	}

	// Checks: every op's own check, then the system's end-of-run checks.
	for _, op := range measured.ops {
		res.Attempted++
		if op.err != nil {
			res.fail(op.err)
		}
	}
	detail, ferr := sys.finish()
	if ferr != nil {
		res.checkFailed(ferr)
	}
	for name, v := range detail {
		res.Detail[name] = v
	}
	if want := def.spec(cfg.seed, 0).Generations; def.kind == kindSvc && want > 0 {
		// A GA job here is one batch on freshly idle workers, so every
		// evolve must run its full generation cap; a budget stop at
		// generation 0 is the live-path defect the whole-MFLOP sizes avoid.
		got := ratio(delta["pnsched_ga_generations_total"], delta["pnsched_ga_runs_total"])
		if got != float64(want) {
			res.checkFailed(fmt.Errorf("%s ran %.1f generations per batch, want %d", def.name, got, want))
		}
	}
	err = tearDown(sys)
	sys = nil
	if err != nil {
		res.checkFailed(err)
	}

	tasks := float64(measured.tasks())
	res.Counts["warmup_ops"] = def.warmup
	res.Counts["measured_ops"] = len(measured.ops)
	res.Counts["measured_tasks"] = int(tasks)
	res.Detail["proc.calib_ms"] = calib
	res.Detail["measured_wall_s"] = measured.end.Sub(measured.start).Seconds()

	if cfg.trace {
		if err := res.perLayer(cfg, rec, untraced, &measured, delta, calib); err != nil {
			return nil, err
		}
	} else {
		res.endToEnd(def, setups, &measured)
	}
	res.Correct = res.Failed == 0 && len(res.CheckErrors) == 0
	return res, nil
}

// endToEnd fills the metrics a user of the system would see. Throughput
// and latency come from the quiet blocks; allocations from the whole
// phase; schedule quality from exactly the first minOps ops.
func (res *result) endToEnd(def workloadDef, setups []float64, p *phase) {
	var quality []float64
	for _, op := range p.ops {
		if op.err == nil && op.index < def.minOps {
			quality = append(quality, op.quality)
		}
	}
	all := p.blocks(def.blockOps())
	quiet := quietBlocks(all, def.blockGroups())
	var rates, lat []float64
	for _, b := range quiet {
		rates = append(rates, b.tasksPerS)
		for _, op := range b.ops {
			if op.err == nil { // a failed op misses every latency
				lat = append(lat, op.lat.Seconds()*1e3)
			}
		}
	}
	tasks := float64(p.tasks())
	res.Counts["setups"] = len(setups)
	res.Counts["blocks"] = len(all)
	res.Counts["quiet_blocks"] = len(quiet)
	res.Counts["latency_samples"] = len(lat)
	res.Counts["quality_samples"] = len(quality)
	res.Detail["tasks_per_s_whole_phase"] = ratio(tasks, p.end.Sub(p.start).Seconds())

	res.set("setup_s", median(setups))
	res.set("tasks_per_s", median(rates))
	res.set("job_latency_p50_ms", stats.Quantile(lat, 0.50))
	res.set("job_latency_p90_ms", stats.Quantile(lat, 0.90))
	res.set("allocs_per_task", ratio(float64(p.mallocs), tasks))
	res.set("alloc_kb_per_task", ratio(float64(p.allocBytes)/1024, tasks))
	res.set("makespan_over_ideal", stats.Mean(quality))
}

// peakHeapMiB is the most heap the process has held from the OS.
func peakHeapMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys) / (1 << 20)
}

// calibrate times a fixed single-thread reference loop, in
// milliseconds, so a run disturbed by the shared machine can be told
// from a slow program.
func calibrate(n int) float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var sum uint64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += x
	}
	calibSink = sum
	return time.Since(t0).Seconds() * 1e3
}

// calibSink keeps the reference loop from being optimised away.
var calibSink uint64
