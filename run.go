package pnsched

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pnsched/internal/observe"
	"pnsched/internal/sim"
	"pnsched/internal/workload"
)

// Workload binds everything one Run needs besides the scheduler: the
// system (cluster and network) and the tasks to push through it.
// Build one by hand from the exported constructors, or use
// GenerateWorkload for the synthetic systems the paper evaluates on.
type Workload struct {
	Cluster *Cluster
	Network *Network
	Tasks   []Task

	// ReissueTimeout, when positive, enables failure recovery: tasks
	// stranded on a permanently dead processor are pulled back and
	// rescheduled after this many simulated seconds.
	ReissueTimeout Seconds
	// MaxTime aborts the run at this simulated instant (0: no limit).
	MaxTime Seconds
}

// WorkloadConfig describes a synthetic workload for GenerateWorkload:
// the paper's §4.2 system shape. Zero fields take the paper's
// defaults (1000 tasks, 50 processors rated 10–100 Mflop/s, normal
// task sizes with mean 1000 MFLOPs and variance 9e5).
type WorkloadConfig struct {
	Tasks          int
	Procs          int
	RateLo, RateHi Rate
	// Sizes draws task sizes; nil selects the Fig-5 normal
	// distribution.
	Sizes SizeDistribution
	// ArrivalGap > 0 switches from all-at-start to Poisson arrivals
	// with this mean inter-arrival gap.
	ArrivalGap Seconds

	// Network shape.
	MeanComm           Seconds
	LinkSpread, Jitter float64
	DriftSigma         float64

	// Failure recovery, copied onto the Workload.
	ReissueTimeout Seconds

	// Seed drives every random stream of the workload (cluster,
	// network, task sizes) — same seed, same system.
	Seed uint64
}

// GenerateWorkload builds a deterministic synthetic Workload. The
// cluster, network and task streams derive from cfg.Seed the same way
// the scenario loader derives them, so two calls with equal configs
// produce identical systems — the property comparison studies rely on
// ("all schedulers were presented with the same set of tasks").
func GenerateWorkload(cfg WorkloadConfig) (Workload, error) {
	if cfg.Tasks == 0 {
		cfg.Tasks = 1000
	}
	if cfg.Procs == 0 {
		cfg.Procs = 50
	}
	if cfg.RateLo == 0 && cfg.RateHi == 0 {
		cfg.RateLo, cfg.RateHi = 10, 100
	}
	if cfg.Sizes == nil {
		cfg.Sizes = Normal{Mean: 1000, Variance: 9e5}
	}
	if cfg.Tasks < 0 || cfg.Procs < 0 {
		return Workload{}, fmt.Errorf("pnsched: negative workload shape (%d tasks, %d procs)", cfg.Tasks, cfg.Procs)
	}
	if cfg.RateLo <= 0 || cfg.RateHi < cfg.RateLo {
		return Workload{}, fmt.Errorf("pnsched: invalid rate range [%v, %v]", cfg.RateLo, cfg.RateHi)
	}
	if cfg.MeanComm < 0 {
		return Workload{}, fmt.Errorf("pnsched: negative mean communication cost %v", cfg.MeanComm)
	}
	base := NewRNG(cfg.Seed)
	wl := workload.Spec{N: cfg.Tasks, Sizes: cfg.Sizes}
	if cfg.ArrivalGap > 0 {
		wl.Arrival = workload.PoissonArrivals{MeanGap: cfg.ArrivalGap}
	}
	return Workload{
		Cluster: NewHeterogeneousCluster(cfg.Procs, cfg.RateLo, cfg.RateHi, base.Stream(1)),
		Network: NewNetwork(cfg.Procs, NetworkConfig{
			MeanCost:   cfg.MeanComm,
			LinkSpread: cfg.LinkSpread,
			Jitter:     cfg.Jitter,
			DriftSigma: cfg.DriftSigma,
		}, base.Stream(2)),
		Tasks:          workload.Generate(wl, base.Stream(3)),
		ReissueTimeout: cfg.ReissueTimeout,
	}, nil
}

// RunOption adjusts one Run invocation.
type RunOption func(*runOpts)

type runOpts struct {
	observer Observer
	timeline *Timeline
}

// Observe delivers the run's events — batch decisions, dispatches,
// GA generation bests, island migrations, budget stops — to o, in
// addition to any observer already attached to the Spec.
func Observe(o Observer) RunOption { return func(r *runOpts) { r.observer = o } }

// WithTimeline fills tl with per-processor activity segments for
// post-run analysis (Gantt rendering, utilisation).
func WithTimeline(tl *Timeline) RunOption { return func(r *runOpts) { r.timeline = tl } }

// Run is the unified execution API: construct the scheduler the spec
// names via the registry, drive the workload through the
// discrete-event simulator, and return its metrics. Cancelling ctx
// aborts the run at the current simulated instant and returns the
// partial Result alongside ctx's error.
//
// Every event source is wired to the same observer: the simulator's
// batch decisions and dispatches, and the GA scheduler's generation /
// migration / budget events. For the live TCP runtime use Serve — the
// server emits the same typed events, in-process and over the wire.
func Run(ctx context.Context, spec Spec, w Workload, opts ...RunOption) (Result, error) {
	var ro runOpts
	for _, o := range opts {
		o(&ro)
	}
	if w.Cluster == nil || w.Cluster.M() == 0 {
		return Result{}, errors.New("pnsched: workload needs a cluster with at least one processor")
	}
	if w.Network == nil {
		return Result{}, errors.New("pnsched: workload needs a network")
	}
	if len(w.Tasks) == 0 {
		return Result{}, errors.New("pnsched: workload has no tasks")
	}
	for _, t := range w.Tasks {
		if t.ID < 0 {
			return Result{}, fmt.Errorf("pnsched: task %d has a negative id", t.ID)
		}
		if math.IsNaN(float64(t.Arrival)) {
			return Result{}, fmt.Errorf("pnsched: task %d arrives at NaN", t.ID)
		}
	}
	if ro.observer != nil {
		spec.observer = observe.Multi(spec.observer, ro.observer)
	}
	s, err := New(spec)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.Config{
		Cluster:        w.Cluster,
		Net:            w.Network,
		Tasks:          w.Tasks,
		Scheduler:      s,
		ReissueTimeout: w.ReissueTimeout,
		MaxTime:        w.MaxTime,
		Observer:       spec.observer,
		Timeline:       ro.timeline,
	}
	if ctx != nil && ctx.Done() != nil {
		cfg.Interrupt = func() bool { return ctx.Err() != nil }
	}
	res := sim.Run(cfg)
	if ctx != nil && ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, nil
}
