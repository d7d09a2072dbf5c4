// Package cluster models the distributed system's processing resources:
// heterogeneous processors whose execution rate is measured in Mflop/s
// and whose availability varies over time (paper §3: "The availability
// of each processor can vary over time (processors are not dedicated and
// may have other tasks that partially use their resources)").
//
// Availability is modelled as a dimensionless factor in [0, 1] applied
// to a processor's base rate. Models are piecewise-constant (or
// piecewise-constant approximations of continuous functions), which lets
// the simulator integrate work across availability changes exactly.
package cluster

import (
	"fmt"
	"math"

	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// AvailabilityModel describes the fraction of a processor's base rate
// that is available at a given simulated time.
type AvailabilityModel interface {
	// At returns the availability factor in [0, 1] at time t.
	At(t units.Seconds) float64
	// NextChange returns the earliest instant strictly after t at which
	// the availability may change, or units.Inf() if it never changes.
	// Between t and NextChange(t) the factor returned by At is constant.
	NextChange(t units.Seconds) units.Seconds
	// Name identifies the model in logs and tables.
	Name() string
}

// Full is the dedicated-processor model: availability 1 forever. The
// paper's main experiments use this ("each processor was assumed to have
// a fixed execution rate").
type Full struct{}

// At implements AvailabilityModel.
func (Full) At(units.Seconds) float64 { return 1 }

// NextChange implements AvailabilityModel.
func (Full) NextChange(units.Seconds) units.Seconds { return units.Inf() }

// Name implements AvailabilityModel.
func (Full) Name() string { return "full" }

// RandomWalk models a non-dedicated processor whose availability drifts
// in steps: every Interval seconds the factor moves by a uniform step in
// [-Step, +Step], reflected into [Floor, 1]. The walk is generated
// lazily from its own deterministic stream, so two walks with the same
// parameters and seed agree exactly and queries at arbitrary times are
// consistent.
type RandomWalk struct {
	Interval units.Seconds
	Step     float64
	Floor    float64 // availability never drops below this (0 allows full outage)
	start    float64
	r        *rng.RNG
	segments []float64 // availability of segment i = [i*Interval, (i+1)*Interval)
}

// NewRandomWalk creates a random-walk availability model starting at
// factor start. It panics on non-positive interval or start outside
// [floor, 1] — construction-time configuration errors.
func NewRandomWalk(interval units.Seconds, step, floor, start float64, r *rng.RNG) *RandomWalk {
	if interval <= 0 {
		panic("cluster: random walk interval must be positive")
	}
	if floor < 0 || floor > 1 || start < floor || start > 1 {
		panic(fmt.Sprintf("cluster: invalid random walk bounds floor=%v start=%v", floor, start))
	}
	return &RandomWalk{Interval: interval, Step: step, Floor: floor, start: start, r: r}
}

func (w *RandomWalk) segment(i int) float64 {
	for len(w.segments) <= i {
		prev := w.start
		if n := len(w.segments); n > 0 {
			prev = w.segments[n-1]
		}
		next := prev + w.r.Uniform(-w.Step, w.Step)
		// Reflect into [Floor, 1].
		if next > 1 {
			next = 2 - next
		}
		if next < w.Floor {
			next = 2*w.Floor - next
		}
		next = math.Max(w.Floor, math.Min(1, next))
		w.segments = append(w.segments, next)
	}
	return w.segments[i]
}

// At implements AvailabilityModel.
func (w *RandomWalk) At(t units.Seconds) float64 {
	if t < 0 {
		t = 0
	}
	return w.segment(int(float64(t) / float64(w.Interval)))
}

// NextChange implements AvailabilityModel. The result is strictly
// greater than t: when t sits exactly on a step boundary,
// floating-point rounding of i×Interval could otherwise reproduce t
// itself and stall the simulator's work integration.
func (w *RandomWalk) NextChange(t units.Seconds) units.Seconds {
	if t < 0 {
		t = 0
	}
	i := int(float64(t)/float64(w.Interval)) + 1
	nc := units.Seconds(float64(i) * float64(w.Interval))
	for nc <= t {
		i++
		nc = units.Seconds(float64(i) * float64(w.Interval))
	}
	return nc
}

// Name implements AvailabilityModel.
func (w *RandomWalk) Name() string { return "random-walk" }

// Sinusoidal models diurnal-style load variation: availability oscillates
// around Mean with the given Amplitude and Period. It is evaluated as a
// piecewise-constant approximation with Period/32 steps so simulation
// integration remains exact with respect to the model.
type Sinusoidal struct {
	Mean      float64
	Amplitude float64
	Period    units.Seconds
	Phase     float64 // radians
}

func (s Sinusoidal) step() units.Seconds { return s.Period / 32 }

// At implements AvailabilityModel.
func (s Sinusoidal) At(t units.Seconds) float64 {
	if t < 0 {
		t = 0
	}
	// Quantise to the step grid, then evaluate the sinusoid.
	st := s.step()
	q := math.Floor(float64(t)/float64(st)) * float64(st)
	v := s.Mean + s.Amplitude*math.Sin(2*math.Pi*q/float64(s.Period)+s.Phase)
	return math.Max(0, math.Min(1, v))
}

// NextChange implements AvailabilityModel. The result is strictly
// greater than t (see RandomWalk.NextChange for why the loop is
// needed).
func (s Sinusoidal) NextChange(t units.Seconds) units.Seconds {
	if t < 0 {
		t = 0
	}
	st := s.step()
	i := math.Floor(float64(t)/float64(st)) + 1
	nc := units.Seconds(i * float64(st))
	for nc <= t {
		i++
		nc = units.Seconds(i * float64(st))
	}
	return nc
}

// Name implements AvailabilityModel.
func (Sinusoidal) Name() string { return "sinusoidal" }

// OffAfter models failure injection: the processor runs at full
// availability until Cutoff, then goes offline permanently (a machine
// being switched off — the scenario §3 gives for why processors hold no
// local queues).
type OffAfter struct {
	Cutoff units.Seconds
}

// At implements AvailabilityModel.
func (o OffAfter) At(t units.Seconds) float64 {
	if t < o.Cutoff {
		return 1
	}
	return 0
}

// NextChange implements AvailabilityModel.
func (o OffAfter) NextChange(t units.Seconds) units.Seconds {
	if t < o.Cutoff {
		return o.Cutoff
	}
	return units.Inf()
}

// Name implements AvailabilityModel.
func (o OffAfter) Name() string { return fmt.Sprintf("off-after(%v)", o.Cutoff) }

// MarkovOnOff is a two-state availability model: the processor
// alternates between an "on" state (availability OnLevel) and an "off"
// state (availability OffLevel), with exponentially distributed state
// durations — the classic model for interactive machines that are
// reclaimed by their owners for bursts. State segments are generated
// lazily and deterministically from the model's stream.
type MarkovOnOff struct {
	MeanOn, MeanOff   units.Seconds
	OnLevel, OffLevel float64
	r                 *rng.RNG
	boundaries        []units.Seconds // cumulative segment end times
	states            []bool          // true = on, per segment
}

// NewMarkovOnOff creates a Markov on/off model starting in the on
// state. It panics on non-positive mean durations or levels outside
// [0, 1].
func NewMarkovOnOff(meanOn, meanOff units.Seconds, onLevel, offLevel float64, r *rng.RNG) *MarkovOnOff {
	if meanOn <= 0 || meanOff <= 0 {
		panic("cluster: markov on/off means must be positive")
	}
	if onLevel < 0 || onLevel > 1 || offLevel < 0 || offLevel > 1 {
		panic(fmt.Sprintf("cluster: markov levels (%v, %v) outside [0,1]", onLevel, offLevel))
	}
	return &MarkovOnOff{MeanOn: meanOn, MeanOff: meanOff, OnLevel: onLevel, OffLevel: offLevel, r: r}
}

// extend generates segments until the boundary list covers t.
func (m *MarkovOnOff) extend(t units.Seconds) {
	for len(m.boundaries) == 0 || m.boundaries[len(m.boundaries)-1] <= t {
		var prev units.Seconds
		on := true
		if n := len(m.boundaries); n > 0 {
			prev = m.boundaries[n-1]
			on = !m.states[n-1]
		}
		mean := m.MeanOn
		if !on {
			mean = m.MeanOff
		}
		dur := units.Seconds(m.r.Exponential(float64(mean)))
		if dur <= 0 {
			dur = units.Seconds(1e-6)
		}
		m.boundaries = append(m.boundaries, prev+dur)
		m.states = append(m.states, on)
	}
}

// segmentAt returns the index of the segment containing t.
func (m *MarkovOnOff) segmentAt(t units.Seconds) int {
	m.extend(t)
	for i, end := range m.boundaries {
		if t < end {
			return i
		}
	}
	return len(m.boundaries) - 1 // unreachable: extend covers t
}

// At implements AvailabilityModel.
func (m *MarkovOnOff) At(t units.Seconds) float64 {
	if t < 0 {
		t = 0
	}
	if m.states[m.segmentAt(t)] {
		return m.OnLevel
	}
	return m.OffLevel
}

// NextChange implements AvailabilityModel.
func (m *MarkovOnOff) NextChange(t units.Seconds) units.Seconds {
	if t < 0 {
		t = 0
	}
	return m.boundaries[m.segmentAt(t)]
}

// Name implements AvailabilityModel.
func (*MarkovOnOff) Name() string { return "markov-on-off" }

// Trace is an explicit piecewise-constant availability schedule, e.g.
// replayed from measurements of a real shared machine.
type Trace struct {
	// Times[i] is the start of segment i; Values[i] its availability.
	// Times must be strictly increasing and start at 0.
	Times  []units.Seconds
	Values []float64
}

// NewTrace validates and returns a trace model.
func NewTrace(times []units.Seconds, values []float64) (Trace, error) { //pnanalyze:ok surface fenced leftover (ix): the sim tests' partial-availability fixture until item 13(c)
	if len(times) == 0 || len(times) != len(values) {
		return Trace{}, fmt.Errorf("cluster: trace needs equal, non-zero lengths (got %d, %d)", len(times), len(values))
	}
	if times[0] != 0 {
		return Trace{}, fmt.Errorf("cluster: trace must start at t=0, got %v", times[0])
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return Trace{}, fmt.Errorf("cluster: trace times not increasing at %d", i)
		}
	}
	for i, v := range values {
		if v < 0 || v > 1 {
			return Trace{}, fmt.Errorf("cluster: trace value %v at %d outside [0,1]", v, i)
		}
	}
	return Trace{Times: times, Values: values}, nil
}

// At implements AvailabilityModel.
func (tr Trace) At(t units.Seconds) float64 {
	if t < 0 {
		t = 0
	}
	// Linear scan is fine: traces are short and queries are warm.
	v := tr.Values[0]
	for i, start := range tr.Times {
		if t >= start {
			v = tr.Values[i]
		} else {
			break
		}
	}
	return v
}

// NextChange implements AvailabilityModel.
func (tr Trace) NextChange(t units.Seconds) units.Seconds {
	for _, start := range tr.Times {
		if start > t {
			return start
		}
	}
	return units.Inf()
}

// Name implements AvailabilityModel.
func (Trace) Name() string { return "trace" }

// Processor is one heterogeneous compute resource.
type Processor struct {
	ID       int
	BaseRate units.Rate // peak execution rate (Linpack-style rating)
	Avail    AvailabilityModel
}

// RateAt returns the effective rate at time t.
func (p *Processor) RateAt(t units.Seconds) units.Rate {
	return p.BaseRate.Scale(p.Avail.At(t))
}

// maxIntegrationSegments bounds CompletionTime's segment walk; beyond
// this the work is treated as never completing (pathological model).
const maxIntegrationSegments = 1 << 20

// CompletionTime returns the instant at which `work` MFLOPs started at
// `start` finish on this processor, integrating the rate across
// availability changes. It returns units.Inf() if the processor can
// never complete the work (e.g. permanently offline).
func (p *Processor) CompletionTime(start units.Seconds, work units.MFlops) units.Seconds {
	if work <= 0 {
		return start
	}
	t := start
	remaining := work
	for i := 0; i < maxIntegrationSegments; i++ {
		rate := p.RateAt(t)
		next := p.Avail.NextChange(t)
		if rate > 0 {
			finish := t + remaining.TimeOn(rate)
			if finish <= next {
				return finish
			}
			remaining -= rate.WorkIn(next - t)
		}
		if next.IsInf() {
			// Constant zero rate forever: never finishes.
			if rate <= 0 {
				return units.Inf()
			}
			// Unreachable: with constant positive rate finish <= next.
			return t + remaining.TimeOn(rate)
		}
		t = next
	}
	return units.Inf()
}

// Cluster is a set of processors plus the dedicated scheduler host
// (paper §3: "A single processor is dedicated to scheduling"; it is not
// part of the worker set).
type Cluster struct {
	Procs []*Processor
}

// New creates a cluster from explicit base rates, all fully available.
func New(rates []units.Rate) *Cluster {
	c := &Cluster{Procs: make([]*Processor, len(rates))}
	for i, r := range rates {
		c.Procs[i] = &Processor{ID: i, BaseRate: r, Avail: Full{}}
	}
	return c
}

// NewHeterogeneous creates m processors with base rates drawn uniformly
// from [minRate, maxRate] — the heterogeneous processor pool of §4.2.
// It panics on invalid bounds or m <= 0.
func NewHeterogeneous(m int, minRate, maxRate units.Rate, r *rng.RNG) *Cluster {
	if m <= 0 {
		panic("cluster: need at least one processor")
	}
	if minRate <= 0 || maxRate < minRate {
		panic(fmt.Sprintf("cluster: invalid rate bounds [%v, %v]", minRate, maxRate))
	}
	c := &Cluster{Procs: make([]*Processor, m)}
	for i := 0; i < m; i++ {
		rate := units.Rate(r.Uniform(float64(minRate), float64(maxRate)))
		c.Procs[i] = &Processor{ID: i, BaseRate: rate, Avail: Full{}}
	}
	return c
}

// M returns the number of processors.
func (c *Cluster) M() int { return len(c.Procs) }

// TotalRateAt returns the aggregate effective rate at time t — the
// ΣPⱼ denominator of the theoretical optimum ψ.
func (c *Cluster) TotalRateAt(t units.Seconds) units.Rate {
	var total units.Rate
	for _, p := range c.Procs {
		total += p.RateAt(t)
	}
	return total
}

// WithAvailability returns a copy of the cluster sharing base rates but
// with the availability model produced by mk for each processor.
func (c *Cluster) WithAvailability(mk func(i int) AvailabilityModel) *Cluster {
	out := &Cluster{Procs: make([]*Processor, len(c.Procs))}
	for i, p := range c.Procs {
		out.Procs[i] = &Processor{ID: p.ID, BaseRate: p.BaseRate, Avail: mk(i)}
	}
	return out
}
