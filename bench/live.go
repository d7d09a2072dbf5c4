package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pnsched"
)

// opTimeout bounds one job / chunk; a stuck op fails instead of hanging
// the run.
const opTimeout = 60 * time.Second

// opResult is what one closed-loop op reports to the phase runner.
type opResult struct {
	index   int
	start   time.Time
	submit  time.Duration // the submit call alone
	lat     time.Duration // just before submit → completion seen by the client
	tasks   int
	quality float64 // makespan over ideal; 0 for a failed op
	id      string  // job id (svc-*)
	err     error
}

// system is a started program under test.
type system interface {
	// op performs measured op i and checks its output.
	op(i int) opResult
	// counters reads the program's own cumulative counts (one /metrics
	// scrape for live systems).
	counters() (map[string]float64, error)
	// finish runs the end-of-run checks and returns layer details for the
	// result's detail block.
	finish() (map[string]float64, error)
	close() error
}

// workerPool runs the loopback workers of a live system. Execute
// returns the modelled Size/Rate without sleeping, so the program's own
// code is all that takes time.
type workerPool struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	names  []string
	rates  map[string]float64
	// Per-worker completion tallies from the Execute hooks (serve-stream
	// has no per-chunk result to read them from).
	tasks []atomic.Int64
	work  []atomic.Int64 // whole MFLOPs
	errs  chan error
}

func startWorkers(addr string, rates []pnsched.Rate) *workerPool {
	ctx, cancel := context.WithCancel(context.Background())
	p := &workerPool{
		cancel: cancel,
		rates:  map[string]float64{},
		tasks:  make([]atomic.Int64, len(rates)),
		work:   make([]atomic.Int64, len(rates)),
		errs:   make(chan error, len(rates)), // one send per worker
	}
	for j, rate := range rates {
		name := fmt.Sprintf("w%d", j)
		p.names = append(p.names, name)
		p.rates[name] = float64(rate)
		p.wg.Add(1)
		go func(j int, rate pnsched.Rate) {
			defer p.wg.Done()
			err := pnsched.RunWorker(ctx, addr, pnsched.WorkerConfig{
				Name: name, Rate: rate, TimeScale: 1,
				Execute: func(t pnsched.Task) time.Duration {
					p.tasks[j].Add(1)
					p.work[j].Add(int64(t.Size))
					return time.Duration(float64(t.Size) / float64(rate) * float64(time.Second))
				},
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				p.errs <- err
			}
		}(j, rate)
	}
	return p
}

// stop cancels the workers and waits for them; the first worker error,
// if any, is returned.
func (p *workerPool) stop() error {
	p.cancel()
	p.wg.Wait()
	select {
	case err := <-p.errs:
		return err
	default:
		return nil
	}
}

// awaitWorkers polls until n workers have registered.
func awaitWorkers(n int, registered func() int) error {
	deadline := time.Now().Add(10 * time.Second)
	for registered() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d workers registered", registered(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func startWatchers(addr string, n int) ([]*pnsched.Watcher, error) {
	var ws []*pnsched.Watcher
	for i := 0; i < n; i++ {
		w, err := pnsched.Watch(context.Background(), addr, nil)
		if err != nil {
			return ws, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// scrape fetches one Prometheus text exposition and returns its
// unlabelled samples by name.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// served accumulates the workers' shares of one op. The exactly-once
// check and the op's makespan over ideal both come from it: the slowest
// serving worker's modelled time over the time a perfect split of the
// same work across the same workers would take.
type served struct {
	tasks               int
	work, rate, slowest float64
}

func (s *served) add(tasks int, work, rate float64) {
	s.tasks += tasks
	s.work += work
	s.rate += rate
	s.slowest = max(s.slowest, work/rate)
}

// check asserts the shares add up to the op — sizes are whole MFLOPs,
// so the sums are exact — and returns the makespan over ideal.
func (s served) check(what string, wantTasks int, wantWork float64) (float64, error) {
	if s.tasks != wantTasks || s.work != wantWork {
		return 0, fmt.Errorf("%s: workers ran %d tasks / %v MFLOPs, want %d / %v", what, s.tasks, s.work, wantTasks, wantWork)
	}
	return s.slowest / (s.work / s.rate), nil
}

// liveCounters is one /metrics scrape plus the watchers' frame counts.
func liveCounters(admin net.Addr, ws []*pnsched.Watcher) (map[string]float64, error) {
	c, err := scrape(admin.String())
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		c["watch_frames"] += float64(w.Frames())
		c["watch_dropped"] += float64(w.Dropped())
	}
	return c, nil
}

// tenants are the four fair-share tenants of svc-*, weights 1–4.
var tenants = [4]string{"t0", "t1", "t2", "t3"}

// svcSystem is a ServeJobs dispatcher with its workers and watchers.
type svcSystem struct {
	def  workloadDef
	in   *inputs
	seed uint64
	dir  string // journal directory; "" without a journal
	obs  pnsched.Observer

	svc      *pnsched.JobService
	addr     string
	pool     *workerPool
	watchers []*pnsched.Watcher

	// Jobs finished by earlier incarnations on the same journal, and jobs
	// submitted to this one; the recovery and end-of-run checks need both.
	priorJobs int
	submitted atomic.Int64
}

func startSvc(def workloadDef, in *inputs, seed uint64, dir string, obs pnsched.Observer) (*svcSystem, error) {
	s := &svcSystem{def: def, in: in, seed: seed, dir: dir, obs: obs}
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *svcSystem) start() error {
	opts := []pnsched.JobsOption{
		pnsched.WithAdmissionPolicy(pnsched.AdmissionFairShare),
		pnsched.WithMaxActiveJobs(s.def.maxActive),
		pnsched.WithJobsAdminAddr("127.0.0.1:0"),
	}
	for t, name := range tenants {
		opts = append(opts, pnsched.WithTenantWeight(name, float64(t+1)))
	}
	if s.dir != "" {
		opts = append(opts, pnsched.WithJobsJournal(s.dir))
	}
	if s.obs != nil {
		opts = append(opts, pnsched.WithJobsObserver(s.obs))
	}
	svc, err := pnsched.ServeJobs(context.Background(), opts...)
	if err != nil {
		return err
	}
	s.svc = svc
	s.addr = svc.Addr().String()
	s.pool = startWorkers(s.addr, s.in.rates)
	err = awaitWorkers(s.def.workers, func() int { return len(svc.Snapshot().Workers) })
	if err != nil {
		s.close()
		return err
	}
	s.watchers, err = startWatchers(s.addr, s.def.watchers)
	if err != nil {
		s.close()
		return err
	}
	return nil
}

func (s *svcSystem) close() error {
	for _, w := range s.watchers {
		w.Close()
	}
	s.watchers = nil
	err := s.svc.Close()
	if perr := s.pool.stop(); err == nil {
		err = perr
	}
	return err
}

// restart closes the dispatcher and serves again from the same journal
// — the replay a crash-restart pays. lastID is a job the closed
// incarnation finished.
func (s *svcSystem) restart(lastID string) error {
	if err := s.close(); err != nil {
		return err
	}
	s.priorJobs += int(s.submitted.Swap(0))
	if err := s.start(); err != nil {
		return err
	}
	// Recovery: a pre-restart job still answers, in its terminal state.
	info, err := s.svc.Status(lastID)
	if err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	if info.State != pnsched.JobDone {
		return fmt.Errorf("after restart: job %s is %s, want done", lastID, info.State)
	}
	return nil
}

func (s *svcSystem) op(i int) opResult {
	k := i % len(s.in.jobs)
	tasks := s.in.jobs[k]
	r := opResult{index: i, tasks: len(tasks), start: time.Now()}
	s.submitted.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	info, err := pnsched.SubmitJob(ctx, s.addr, pnsched.JobRequest{
		Tenant:    tenants[i%len(tenants)],
		Scheduler: s.def.spec(s.seed, i),
		Tasks:     tasks,
	})
	cancel()
	r.submit = time.Since(r.start)
	if err != nil {
		r.err = err
		return r
	}
	r.id = info.ID
	info, err = s.svc.WaitJob(info.ID, opTimeout)
	var res pnsched.JobResult
	if err == nil {
		res, err = s.svc.Result(info.ID)
	}
	r.lat = time.Since(r.start)
	if err != nil {
		r.err = err
		return r
	}
	r.quality, r.err = s.checkJob(info, res, len(tasks), s.in.work[k])
	return r
}

// checkJob asserts a job completed exactly once, with an id that
// continues the journal's numbering, and returns its makespan over
// ideal.
func (s *svcSystem) checkJob(info pnsched.JobInfo, res pnsched.JobResult, tasks int, work float64) (float64, error) {
	if info.State != pnsched.JobDone || res.State != pnsched.JobDone {
		return 0, fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	if res.Tasks != tasks || res.Completed != tasks {
		return 0, fmt.Errorf("job %s completed %d of %d tasks, submitted %d", info.ID, res.Completed, res.Tasks, tasks)
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(info.ID, "job-")); err != nil || n <= s.priorJobs {
		return 0, fmt.Errorf("job id %s does not continue after %d pre-restart jobs", info.ID, s.priorJobs)
	}
	var sv served
	for _, w := range res.Workers {
		rate, ok := s.pool.rates[w.Name]
		if !ok {
			return 0, fmt.Errorf("job %s served by unknown worker %q", info.ID, w.Name)
		}
		sv.add(w.Tasks, w.Work, rate)
	}
	return sv.check("job "+info.ID, tasks, work)
}

func (s *svcSystem) counters() (map[string]float64, error) {
	return liveCounters(s.svc.AdminAddr(), s.watchers)
}

func (s *svcSystem) finish() (map[string]float64, error) {
	snap := s.svc.Snapshot()
	detail := map[string]float64{
		"dist.roundtrip_p50_ms": float64(snap.Latency.P50) * 1e3,
	}
	if snap.Completed != snap.Submitted {
		return detail, fmt.Errorf("service completed %d of %d submitted tasks", snap.Completed, snap.Submitted)
	}
	if snap.Jobs == nil || snap.Jobs.Failed != 0 || snap.Jobs.Cancelled != 0 || snap.Jobs.Queued != 0 || snap.Jobs.Running != 0 {
		return detail, fmt.Errorf("service job counts %+v, want all done", snap.Jobs)
	}
	if got, want := snap.Jobs.Done-s.priorJobs, int(s.submitted.Load()); got != want {
		return detail, fmt.Errorf("service finished %d jobs of %d submitted", got, want)
	}
	return detail, nil
}

// streamSystem is a Serve server (the dist.Server runtime) with its
// workers and watchers; one client submits chunks and waits.
type streamSystem struct {
	def      workloadDef
	in       *inputs
	srv      *pnsched.Server
	pool     *workerPool
	watchers []*pnsched.Watcher

	// Tallies as of the previous chunk's completion.
	prevTasks, prevWork []int64
}

func startStream(def workloadDef, in *inputs, seed uint64, obs pnsched.Observer) (*streamSystem, error) {
	opts := []pnsched.ServeOption{pnsched.WithAdminAddr("127.0.0.1:0")}
	if obs != nil {
		opts = append(opts, pnsched.WithServeObserver(obs))
	}
	srv, err := pnsched.Serve(context.Background(), def.spec(seed, 0), opts...)
	if err != nil {
		return nil, err
	}
	s := &streamSystem{
		def: def, in: in, srv: srv,
		prevTasks: make([]int64, def.workers),
		prevWork:  make([]int64, def.workers),
	}
	addr := srv.Addr().String()
	s.pool = startWorkers(addr, in.rates)
	err = awaitWorkers(def.workers, func() int { return srv.Stats().Workers })
	if err != nil {
		s.close()
		return nil, err
	}
	s.watchers, err = startWatchers(addr, def.watchers)
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *streamSystem) close() error {
	for _, w := range s.watchers {
		w.Close()
	}
	err := s.srv.Close()
	if perr := s.pool.stop(); err == nil {
		err = perr
	}
	return err
}

func (s *streamSystem) op(i int) opResult {
	k := i % len(s.in.jobs)
	tasks := s.in.jobs[k]
	r := opResult{index: i, tasks: len(tasks), start: time.Now()}
	s.srv.Submit(tasks)
	r.submit = time.Since(r.start)
	err := s.srv.Wait(opTimeout)
	r.lat = time.Since(r.start)
	if err != nil {
		r.err = err
		return r
	}
	// Exactly-once, from the workers' own tallies for this chunk.
	var sv served
	for j, name := range s.pool.names {
		nt, nw := s.pool.tasks[j].Load(), s.pool.work[j].Load()
		dt, dw := nt-s.prevTasks[j], nw-s.prevWork[j]
		s.prevTasks[j], s.prevWork[j] = nt, nw
		if dt > 0 {
			sv.add(int(dt), float64(dw), s.pool.rates[name])
		}
	}
	r.quality, r.err = sv.check(fmt.Sprintf("chunk %d", i), len(tasks), s.in.work[k])
	return r
}

func (s *streamSystem) counters() (map[string]float64, error) {
	return liveCounters(s.srv.AdminAddr(), s.watchers)
}

func (s *streamSystem) finish() (map[string]float64, error) {
	snap := s.srv.Snapshot()
	detail := map[string]float64{
		"dist.roundtrip_p50_ms": float64(snap.Latency.P50) * 1e3,
	}
	if snap.Completed != snap.Submitted || snap.Reissued != 0 {
		return detail, fmt.Errorf("server completed %d of %d submitted tasks, %d reissued", snap.Completed, snap.Submitted, snap.Reissued)
	}
	return detail, nil
}
