// Package scenario loads complete simulation scenarios from JSON:
// cluster composition (explicit rates and availability models), network
// characteristics, workload specification and scheduler choice. It is
// the configuration surface of cmd/pnsim -scenario, letting experiments
// be described in files and shared — the role the paper's "different
// scenarios" (§4) play in its evaluation.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"pnsched"
	"pnsched/internal/cluster"
	"pnsched/internal/network"
	"pnsched/internal/rng"
	"pnsched/internal/task"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// Spec is the JSON schema of a scenario file.
type Spec struct {
	// Seed drives every random stream of the scenario.
	Seed uint64 `json:"seed"`

	Cluster   ClusterSpec   `json:"cluster"`
	Network   NetworkSpec   `json:"network"`
	Workload  WorkloadSpec  `json:"workload"`
	Scheduler SchedulerSpec `json:"scheduler"`

	// ReissueTimeoutS enables failure recovery (0 disables).
	ReissueTimeoutS float64 `json:"reissue_timeout_s,omitempty"`
	// MaxTimeS aborts the simulation at this instant (0: unlimited).
	MaxTimeS float64 `json:"max_time_s,omitempty"`
}

// ClusterSpec describes processors either explicitly (Procs) or as a
// uniformly drawn heterogeneous pool (Count/RateLo/RateHi).
type ClusterSpec struct {
	Procs  []ProcSpec `json:"procs,omitempty"`
	Count  int        `json:"count,omitempty"`
	RateLo float64    `json:"rate_lo,omitempty"`
	RateHi float64    `json:"rate_hi,omitempty"`
}

// ProcSpec is one explicit processor.
type ProcSpec struct {
	Rate  float64    `json:"rate"`
	Avail *AvailSpec `json:"avail,omitempty"`
}

// AvailSpec selects an availability model.
type AvailSpec struct {
	// Model: "full", "off-after", "random-walk", "sinusoidal",
	// "markov".
	Model string `json:"model"`
	// off-after
	CutoffS float64 `json:"cutoff_s,omitempty"`
	// random-walk
	IntervalS float64 `json:"interval_s,omitempty"`
	Step      float64 `json:"step,omitempty"`
	Floor     float64 `json:"floor,omitempty"`
	Start     float64 `json:"start,omitempty"`
	// sinusoidal
	Mean      float64 `json:"mean,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	PeriodS   float64 `json:"period_s,omitempty"`
	// markov
	MeanOnS  float64 `json:"mean_on_s,omitempty"`
	MeanOffS float64 `json:"mean_off_s,omitempty"`
	OnLevel  float64 `json:"on_level,omitempty"`
	OffLevel float64 `json:"off_level,omitempty"`
}

// NetworkSpec mirrors network.Config.
type NetworkSpec struct {
	MeanCostS  float64 `json:"mean_cost_s"`
	LinkSpread float64 `json:"link_spread,omitempty"`
	Jitter     float64 `json:"jitter,omitempty"`
	DriftSigma float64 `json:"drift_sigma,omitempty"`
}

// WorkloadSpec selects a task-size distribution and arrival process.
type WorkloadSpec struct {
	N int `json:"n"`
	// Dist: "uniform", "normal", "poisson", "constant".
	Dist     string  `json:"dist"`
	Mean     float64 `json:"mean,omitempty"`
	Variance float64 `json:"variance,omitempty"`
	Lo       float64 `json:"lo,omitempty"`
	Hi       float64 `json:"hi,omitempty"`
	// ArrivalGapS > 0 switches from all-at-start to Poisson arrivals.
	ArrivalGapS float64 `json:"arrival_gap_s,omitempty"`
	// File loads tasks from a pnworkload JSON file instead.
	File string `json:"file,omitempty"`
}

// SchedulerSpec is the scheduler block of a scenario file — exactly
// the public pnsched.Spec, so scenario files, CLI flags and library
// calls all lower onto the same registry-validated configuration.
type SchedulerSpec = pnsched.Spec

// Load parses a scenario file.
func Load(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Spec) validate() error {
	if len(s.Cluster.Procs) == 0 && s.Cluster.Count <= 0 {
		return fmt.Errorf("scenario: cluster needs procs or count")
	}
	if s.Cluster.Count > 0 && (s.Cluster.RateLo <= 0 || s.Cluster.RateHi < s.Cluster.RateLo) {
		return fmt.Errorf("scenario: invalid rate range [%v, %v]", s.Cluster.RateLo, s.Cluster.RateHi)
	}
	for i, p := range s.Cluster.Procs {
		if p.Rate <= 0 {
			return fmt.Errorf("scenario: proc %d rate %v invalid", i, p.Rate)
		}
	}
	if s.Workload.File == "" && s.Workload.N <= 0 {
		return fmt.Errorf("scenario: workload needs n or file")
	}
	if s.Network.MeanCostS < 0 {
		return fmt.Errorf("scenario: negative mean comm cost")
	}
	// Scheduler validation is the registry's: one rule set shared with
	// pnsched.New, the CLIs and the experiments harness.
	if err := s.Scheduler.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// Build materialises the scenario into what pnsched.Run takes: the
// scheduler spec, drawing from the scenario's stream 4 unless it pins
// its own seed, and the workload. Open is used to resolve Workload.File
// references (pass nil to forbid them).
func (s *Spec) Build(open func(name string) (io.ReadCloser, error)) (pnsched.Spec, pnsched.Workload, error) {
	if err := s.Scheduler.Validate(); err != nil {
		return pnsched.Spec{}, pnsched.Workload{}, fmt.Errorf("scenario: %w", err)
	}
	base := rng.New(s.Seed)
	clu, err := s.buildCluster(base.Stream(1))
	if err != nil {
		return pnsched.Spec{}, pnsched.Workload{}, err
	}
	net := network.New(clu.M(), network.Config{
		MeanCost:   units.Seconds(s.Network.MeanCostS),
		LinkSpread: s.Network.LinkSpread,
		Jitter:     s.Network.Jitter,
		DriftSigma: s.Network.DriftSigma,
	}, base.Stream(2))
	tasks, err := s.buildWorkload(base.Stream(3), open)
	if err != nil {
		return pnsched.Spec{}, pnsched.Workload{}, err
	}
	spec := s.Scheduler
	if spec.Seed == 0 {
		spec = spec.With(pnsched.WithRNG(base.Stream(4)))
	}
	return spec, pnsched.Workload{
		Cluster:        clu,
		Network:        net,
		Tasks:          tasks,
		ReissueTimeout: units.Seconds(s.ReissueTimeoutS),
		MaxTime:        units.Seconds(s.MaxTimeS),
	}, nil
}

func (s *Spec) buildCluster(r *rng.RNG) (*cluster.Cluster, error) {
	if len(s.Cluster.Procs) == 0 {
		return cluster.NewHeterogeneous(s.Cluster.Count,
			units.Rate(s.Cluster.RateLo), units.Rate(s.Cluster.RateHi), r), nil
	}
	rates := make([]units.Rate, len(s.Cluster.Procs))
	for i, p := range s.Cluster.Procs {
		rates[i] = units.Rate(p.Rate)
	}
	clu := cluster.New(rates)
	for i, p := range s.Cluster.Procs {
		if p.Avail == nil {
			continue
		}
		m, err := buildAvail(*p.Avail, r.Stream(uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("scenario: proc %d: %w", i, err)
		}
		clu.Procs[i].Avail = m
	}
	return clu, nil
}

func buildAvail(a AvailSpec, r *rng.RNG) (cluster.AvailabilityModel, error) {
	switch a.Model {
	case "full", "":
		return cluster.Full{}, nil
	case "off-after":
		return cluster.OffAfter{Cutoff: units.Seconds(a.CutoffS)}, nil
	case "random-walk":
		start := a.Start
		if start == 0 {
			start = 1
		}
		return cluster.NewRandomWalk(units.Seconds(a.IntervalS), a.Step, a.Floor, start, r), nil
	case "sinusoidal":
		return cluster.Sinusoidal{
			Mean:      a.Mean,
			Amplitude: a.Amplitude,
			Period:    units.Seconds(a.PeriodS),
		}, nil
	case "markov":
		return cluster.NewMarkovOnOff(
			units.Seconds(a.MeanOnS), units.Seconds(a.MeanOffS),
			a.OnLevel, a.OffLevel, r), nil
	default:
		return nil, fmt.Errorf("unknown availability model %q", a.Model)
	}
}

func (s *Spec) buildWorkload(r *rng.RNG, open func(string) (io.ReadCloser, error)) ([]task.Task, error) {
	if s.Workload.File != "" {
		if open == nil {
			return nil, fmt.Errorf("scenario: workload file references are not allowed here")
		}
		f, err := open(s.Workload.File)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ReadJSON(f)
	}
	dist, err := workload.DistributionByName(s.Workload.Dist, s.Workload.Mean, s.Workload.Variance, s.Workload.Lo, s.Workload.Hi)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	spec := workload.Spec{N: s.Workload.N, Sizes: dist}
	if s.Workload.ArrivalGapS > 0 {
		spec.Arrival = workload.PoissonArrivals{MeanGap: units.Seconds(s.Workload.ArrivalGapS)}
	}
	return workload.Generate(spec, r), nil
}
