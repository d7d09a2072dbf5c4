package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pnsched/internal/core"
	"pnsched/internal/dist"
	"pnsched/internal/eventq"
	"pnsched/internal/ga"
	"pnsched/internal/jobs"
	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// The probes time one layer's exported functions directly, at fixed
// counts, after the traced phase. They do not depend on the workload,
// so the same layer number is comparable across all six traced runs;
// each is the median of several repetitions.

// probeSink keeps probe results alive so the compiler cannot drop the
// timed calls.
var probeSink any

// timeEach runs f reps times and returns the median duration.
func timeEach(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// allocsOf returns the mallocs and bytes one call of f allocates.
func allocsOf(f func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// staticState is a fixed sched.State: M idle processors with the given
// rates.
type staticState struct{ rates []units.Rate }

func (s staticState) M() int                            { return len(s.rates) }
func (s staticState) Rate(j int) units.Rate             { return s.rates[j] }
func (s staticState) PendingLoad(int) units.MFlops      { return 0 }
func (s staticState) CommEstimate(int) units.Seconds    { return 0 }
func (s staticState) Now() units.Seconds                { return 0 }
func (s staticState) TimeUntilFirstIdle() units.Seconds { return units.Inf() }

// probes fills every probe metric.
func (res *result) probes(cfg runConfig) error {
	r := rng.New(cfg.seed)
	batch := workload.Generate(workload.Spec{N: 200, Sizes: workload.Normal{Mean: 1000, Variance: 9e5}}, r.Stream(1))
	rr := r.Stream(2)
	rates := make([]units.Rate, 50)
	for j := range rates {
		rates[j] = units.Rate(rr.Uniform(10, 100))
	}
	res.probeCore(cfg, batch, rates)
	res.probeSim(cfg, batch, rates)
	if err := res.probeDist(cfg, batch); err != nil {
		return fmt.Errorf("dist probes: %w", err)
	}
	if err := res.probeJobs(cfg, batch[:64]); err != nil {
		return fmt.Errorf("jobs probes: %w", err)
	}
	return nil
}

// probeCore times the GA at the paper's scale: H=200 tasks, M=50
// processors, population 20, 100 generations, one rebalance.
func (res *result) probeCore(rc runConfig, batch []task.Task, rates []units.Rate) {
	seed := rc.seed
	p := core.BuildProblem(batch, rates, nil, nil, false)
	cfg := core.DefaultConfig()
	cfg.Generations = 100

	i := uint64(0)
	evolve := func() {
		i++
		r := rng.New(seed + i)
		st := core.Evolve(p, cfg, core.ListPopulation(p, cfg.Population, r), units.Inf(), r)
		probeSink = st
	}
	res.set("core.evolve_ms_h200_m50", timeEach(rc.count(9), evolve).Seconds()*1e3)
	mallocs, bytes := allocsOf(evolve)
	res.set("core.evolve_allocs_h200_m50", mallocs)
	res.set("core.evolve_alloc_kb_h200_m50", bytes/1024)

	res.set("core.listpop_ms_h200_m50", timeEach(rc.count(25), func() {
		i++
		probeSink = core.ListPopulation(p, cfg.Population, rng.New(seed+i))
	}).Seconds()*1e3)

	res.set("core.evolve_island_ms_h200_m50", timeEach(rc.count(5), func() {
		i++
		probeSink = core.EvolveIsland(context.Background(), p, cfg, core.IslandConfig{Islands: 2}, units.Inf(), rng.New(seed+i))
	}).Seconds()*1e3)

	// One engine generation as production runs it: incremental evaluator,
	// one §3.5 rebalance per individual.
	er := rng.New(seed)
	inc := core.NewIncrementalEvaluator(p)
	rb := core.NewRebalancer(p)
	rb.BindSlots(inc)
	eng := ga.NewEngine(ga.Config{
		PopulationSize: cfg.Population, MaxGenerations: 1 << 30, Elitism: true,
		PostGeneration: func(pop []ga.Chromosome, r *rng.RNG) {
			for s, ind := range pop {
				rb.ApplySlot(s, ind, 1, r)
			}
		},
	}, inc, core.ListPopulation(p, cfg.Population, er), er)
	steps := rc.count(200)
	stepAll := func() {
		for k := 0; k < steps; k++ {
			eng.Step()
		}
	}
	res.set("ga.step_us_h200_m50", timeEach(rc.count(5), stepAll).Seconds()*1e6/float64(steps))
	mallocs, _ = allocsOf(stepAll)
	res.set("ga.step_allocs_h200_m50", mallocs/float64(steps))
}

func (res *result) probeSim(rc runConfig, batch []task.Task, rates []units.Rate) {
	seed := rc.seed
	// Event queue at a steady depth of 1000.
	var q eventq.Queue
	qr := rng.New(seed)
	for k := 0; k < 1000; k++ {
		q.Push(units.Seconds(qr.Float64()), nil)
	}
	pairs := rc.count(200_000)
	res.set("eventq.push_pop_ns", float64(timeEach(rc.count(5), func() {
		for k := 0; k < pairs; k++ {
			it, _ := q.Pop()
			q.Push(it.Time+units.Seconds(qr.Float64()), nil)
		}
	}))/float64(pairs))

	st := staticState{rates: rates}
	res.set("sched.mm_batch_us_h200_m50", timeEach(rc.count(25), func() {
		asg, _ := sched.MM{}.ScheduleBatch(batch, st)
		probeSink = asg
	}).Seconds()*1e6)

	n := rc.count(20_000)
	res.set("workload.generate_us_per_ktask", timeEach(rc.count(9), func() {
		probeSink = workload.Generate(workload.Spec{N: n, Sizes: workload.Normal{Mean: 1000, Variance: 9e5}}, rng.New(seed))
	}).Seconds()*1e6/(float64(n)/1000))
}

// probeDist times the wire codec over the four frames the live paths
// send most, and the broadcaster's fan-out with 1 and 8 watch
// subscribers on in-memory pipes.
func (res *result) probeDist(rc runConfig, batch []task.Task) error {
	dispatchFrame, err := captureDispatchFrame()
	if err != nil {
		return err
	}
	msgs := []*dist.Message{
		{Type: dist.MsgAssign, Tasks: dist.TasksToWire(batch[:16])},
		{Type: dist.MsgDone, Task: 5, Elapsed: 10.5, Real: 0.0105},
		{Type: dist.MsgJobSubmit, Job: &dist.JobSubmission{
			Tenant: "t1", Spec: json.RawMessage(`{"name":"MM"}`), Tasks: dist.TasksToWire(batch[:64]),
		}},
	}
	frames := [][]byte{dispatchFrame}
	for _, m := range msgs {
		b, merr := json.Marshal(m)
		if merr != nil {
			return merr
		}
		frames = append(frames, b)
	}
	_, ev, err := dist.DecodeWireMessage(dispatchFrame)
	if err != nil || ev == nil {
		return fmt.Errorf("dispatch frame did not decode as an event: %v", err)
	}

	rounds := rc.count(2000)
	decode := func() {
		for k := 0; k < rounds; k++ {
			for _, f := range frames {
				m, e, err := dist.DecodeWireMessage(f)
				if err != nil {
					panic(err)
				}
				probeSink, probeSink = m, e
			}
		}
	}
	perFrame := float64(rounds * len(frames))
	res.set("dist.decode_ns_per_frame", float64(timeEach(rc.count(7), decode))/perFrame)
	mallocs, _ := allocsOf(decode)
	res.set("dist.decode_allocs_per_frame", mallocs/perFrame)
	res.set("dist.encode_ns_per_frame", float64(timeEach(rc.count(7), func() {
		for k := 0; k < rounds; k++ {
			b, _ := json.Marshal(ev)
			probeSink = b
			for _, m := range msgs {
				b, _ := json.Marshal(m)
				probeSink = b
			}
		}
	}))/perFrame)

	for _, subs := range []int{1, 8} {
		ns, err := publishProbe(subs, rc.count(20_000), rc.count(5))
		if err != nil {
			return err
		}
		res.set(fmt.Sprintf("dist.publish_ns_per_event_sub%d", subs), ns)
	}
	return nil
}

// watchPipe attaches one ServeWatch subscriber to b over an in-memory
// pipe and returns the client end once the welcome has arrived.
func watchPipe(b *dist.Broadcaster) (net.Conn, *bufio.Reader, error) {
	server, client := net.Pipe()
	go dist.ServeWatch(server, bufio.NewReader(server), b, nil)
	br := bufio.NewReader(client)
	if _, err := dist.ReadFrame(br); err != nil { // the welcome
		client.Close()
		return nil, nil, err
	}
	return client, br, nil
}

// captureDispatchFrame returns the bytes of one dispatch event frame as
// a watcher receives it (the frame's payload types are unexported).
func captureDispatchFrame() ([]byte, error) {
	b := dist.NewBroadcaster(0, -1)
	defer b.Close()
	client, br, err := watchPipe(b)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	b.OnDispatch(observe.Dispatch{Proc: 3, Task: 41, At: 12.5})
	line, err := dist.ReadFrame(br)
	return append([]byte(nil), line...), err
}

// publishProbe times Broadcaster.OnDispatch with subs subscribers
// draining their streams.
func publishProbe(subs, events, reps int) (float64, error) {
	b := dist.NewBroadcaster(0, -1)
	var clients []net.Conn
	drained := make(chan struct{}, subs) // one send per subscriber
	for s := 0; s < subs; s++ {
		client, br, err := watchPipe(b)
		if err != nil {
			return 0, err
		}
		clients = append(clients, client)
		go func() {
			io.Copy(io.Discard, br)
			drained <- struct{}{}
		}()
	}
	d := timeEach(reps, func() {
		for k := 0; k < events; k++ {
			b.OnDispatch(observe.Dispatch{Proc: k % 4, Task: task.ID(k), At: units.Seconds(k)})
		}
	})
	b.Close()
	for _, c := range clients {
		c.Close()
	}
	for s := 0; s < subs; s++ {
		<-drained
	}
	return float64(d) / float64(events), nil
}

// probeJobs times admission and the journal on a dispatcher with no
// workers, so jobs queue and nothing runs: submit at a queue depth of
// 2000 with and without a journal, a full snapshot of 256 queued jobs,
// and the replay of the 2000-job journal.
func (res *result) probeJobs(cfg runConfig, tasks []task.Task) error {
	wire := dist.TasksToWire(tasks)
	newDispatcher := func(dir string, every int) (*jobs.Dispatcher, error) {
		return jobs.New(jobs.Config{
			NewScheduler:  func(json.RawMessage) (sched.Batch, error) { return sched.MM{}, nil },
			Policy:        jobs.PolicyFair,
			Weights:       map[string]float64{"t0": 1, "t1": 2, "t2": 3, "t3": 4},
			JournalDir:    dir,
			SnapshotEvery: every,
		})
	}
	n := 0
	submit := func(d *jobs.Dispatcher) error {
		n++
		_, err := d.Submit(dist.JobSubmission{Tenant: fmt.Sprintf("t%d", n%4), Tasks: wire})
		return err
	}
	// timeSubmits fills the queue to depth, then returns the median of
	// the next timed submits.
	timeSubmits := func(d *jobs.Dispatcher, depth, timed int) (time.Duration, error) {
		for k := 0; k < depth; k++ {
			if err := submit(d); err != nil {
				return 0, err
			}
		}
		var err error
		dur := timeEach(timed, func() {
			if e := submit(d); e != nil {
				err = e
			}
		})
		return dur, err
	}

	depth, timed := cfg.count(2000), cfg.count(200)
	d, err := newDispatcher("", 0)
	if err != nil {
		return err
	}
	dur, err := timeSubmits(d, depth, timed)
	d.Close()
	if err != nil {
		return err
	}
	res.set("jobs.submit_us_q2000", dur.Seconds()*1e6)

	dir := filepath.Join(cfg.outDir, fmt.Sprintf("probe-journal-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	if d, err = newDispatcher(filepath.Join(dir, "q2000"), 0); err != nil {
		return err
	}
	dur, err = timeSubmits(d, depth, timed)
	d.Close()
	if err != nil {
		return err
	}
	res.set("jobs.submit_journal_us_q2000", dur.Seconds()*1e6)

	var replayErr error
	res.set("jobs.replay_ms_q2000", timeEach(cfg.count(3), func() {
		replayed, rerr := newDispatcher(filepath.Join(dir, "q2000"), 0)
		if rerr != nil {
			replayErr = rerr
			return
		}
		if got := len(replayed.Queue()); got != depth+timed {
			replayErr = fmt.Errorf("replay recovered %d jobs, want %d", got, depth+timed)
		}
		replayed.Close()
	}).Seconds()*1e3)
	if replayErr != nil {
		return replayErr
	}

	// Queue 256 jobs with periodic snapshots off, then reopen with
	// SnapshotEvery 1: every timed submit is an append plus a full
	// snapshot (marshal, write, fsync, rename, truncate).
	if d, err = newDispatcher(filepath.Join(dir, "q256"), -1); err != nil {
		return err
	}
	_, err = timeSubmits(d, cfg.count(256)-1, 1)
	d.Close()
	if err != nil {
		return err
	}
	if d, err = newDispatcher(filepath.Join(dir, "q256"), 1); err != nil {
		return err
	}
	dur, err = timeSubmits(d, 0, cfg.count(15))
	d.Close()
	if err != nil {
		return err
	}
	res.set("jobs.snapshot_ms_q256", dur.Seconds()*1e3)
	return nil
}
