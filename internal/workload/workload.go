// Package workload generates the synthetic task sets of the paper's
// evaluation (§4): "Our task sizes are randomly generated using uniform,
// normal, and Poisson distributions" — there being, as the paper notes
// (citing Theys et al.), no representative heterogeneous-computing task
// benchmark to draw on. Arrival processes cover both the experiments'
// "all tasks arrive at the beginning" setting and genuinely dynamic
// Poisson arrivals for the dynamic-scheduling scenarios.
package workload

import (
	"fmt"
	"math"

	"pnsched/internal/rng"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// minTaskSize is the floor applied to every generated size: a task must
// represent positive work or processing time degenerates to zero.
const minTaskSize units.MFlops = 1

// SizeDistribution draws task sizes in MFLOPs.
type SizeDistribution interface {
	// Sample draws one task size.
	Sample(r *rng.RNG) units.MFlops
	// Name identifies the distribution in tables and logs.
	Name() string
	// MeanSize returns the distribution's expected task size, used to
	// size simulation horizons.
	MeanSize() units.MFlops
}

// Uniform draws sizes uniformly from [Lo, Hi] — the paper uses 10–100,
// 10–1000 and 10–10000 MFLOPs (Figs 7–9).
type Uniform struct {
	Lo, Hi units.MFlops
}

// Sample implements SizeDistribution.
func (u Uniform) Sample(r *rng.RNG) units.MFlops {
	s := units.MFlops(r.Uniform(float64(u.Lo), float64(u.Hi)))
	if s < minTaskSize {
		s = minTaskSize
	}
	return s
}

// Name implements SizeDistribution.
func (u Uniform) Name() string { return fmt.Sprintf("uniform[%g,%g]", float64(u.Lo), float64(u.Hi)) }

// MeanSize implements SizeDistribution.
func (u Uniform) MeanSize() units.MFlops { return (u.Lo + u.Hi) / 2 }

// Normal draws sizes from a normal distribution truncated below at
// 1 MFLOP. Figs 5–6 use mean 1000 MFLOPs and variance 9×10⁵.
type Normal struct {
	Mean     units.MFlops
	Variance float64 // in MFLOPs²
}

// Sample implements SizeDistribution. Draws below the 1-MFLOP floor are
// clamped rather than resampled: clamping perturbs the configured mean
// far less than conditioning the distribution on positivity (with the
// paper's Fig-5 parameters, mean 1000 and variance 9×10⁵, about 15% of
// the mass sits below zero).
func (n Normal) Sample(r *rng.RNG) units.MFlops {
	sd := math.Sqrt(math.Max(n.Variance, 0))
	s := units.MFlops(r.Normal(float64(n.Mean), sd))
	if s < minTaskSize {
		s = minTaskSize
	}
	return s
}

// Name implements SizeDistribution.
func (n Normal) Name() string {
	return fmt.Sprintf("normal(mean=%g,var=%g)", float64(n.Mean), n.Variance)
}

// MeanSize implements SizeDistribution.
func (n Normal) MeanSize() units.MFlops { return n.Mean }

// Poisson draws integer sizes from a Poisson distribution — Figs 10–11
// use means of 10 and 100 MFLOPs.
type Poisson struct {
	Mean units.MFlops
}

// Sample implements SizeDistribution.
func (p Poisson) Sample(r *rng.RNG) units.MFlops {
	s := units.MFlops(r.Poisson(float64(p.Mean)))
	if s < minTaskSize {
		s = minTaskSize
	}
	return s
}

// Name implements SizeDistribution.
func (p Poisson) Name() string { return fmt.Sprintf("poisson(mean=%g)", float64(p.Mean)) }

// MeanSize implements SizeDistribution.
func (p Poisson) MeanSize() units.MFlops { return p.Mean }

// Constant produces identical task sizes; useful in tests where the
// optimal schedule is known analytically.
type Constant struct {
	Size units.MFlops
}

// Sample implements SizeDistribution.
func (c Constant) Sample(*rng.RNG) units.MFlops { return c.Size }

// Name implements SizeDistribution.
func (c Constant) Name() string { return fmt.Sprintf("constant(%g)", float64(c.Size)) }

// MeanSize implements SizeDistribution.
func (c Constant) MeanSize() units.MFlops { return c.Size }

// DistributionByName builds the size distribution a CLI flag or a
// scenario file names — "normal", "uniform", "poisson" or "constant" —
// from the parameters those surfaces share: mean is the mean of the
// normal and Poisson distributions and the size of the constant one,
// variance belongs to the normal, [lo, hi] to the uniform.
func DistributionByName(name string, mean, variance, lo, hi float64) (SizeDistribution, error) {
	switch name {
	case "normal":
		return Normal{Mean: units.MFlops(mean), Variance: variance}, nil
	case "uniform":
		return Uniform{Lo: units.MFlops(lo), Hi: units.MFlops(hi)}, nil
	case "poisson":
		return Poisson{Mean: units.MFlops(mean)}, nil
	case "constant":
		return Constant{Size: units.MFlops(mean)}, nil
	}
	return nil, fmt.Errorf("unknown distribution %q (want normal, uniform, poisson or constant)", name)
}

// ArrivalProcess assigns arrival times to a sequence of tasks.
type ArrivalProcess interface {
	// Next returns the arrival time of the next task given the previous
	// arrival time.
	Next(r *rng.RNG, prev units.Seconds) units.Seconds
	// Name identifies the process.
	Name() string
}

// AtStart makes every task available at t=0, matching the paper's
// experimental setup ("All of the tasks arrived for scheduling at the
// beginning of the simulation").
type AtStart struct{}

// Next implements ArrivalProcess.
func (AtStart) Next(*rng.RNG, units.Seconds) units.Seconds { return 0 }

// Name implements ArrivalProcess.
func (AtStart) Name() string { return "at-start" }

// PoissonArrivals spaces tasks with exponential inter-arrival gaps of
// the given mean — the "tasks arrive randomly" regime of §3 used by the
// dynamic-scheduling example and tests.
type PoissonArrivals struct {
	MeanGap units.Seconds
}

// Next implements ArrivalProcess.
func (p PoissonArrivals) Next(r *rng.RNG, prev units.Seconds) units.Seconds {
	return prev + units.Seconds(r.Exponential(float64(p.MeanGap)))
}

// Name implements ArrivalProcess.
func (p PoissonArrivals) Name() string {
	return fmt.Sprintf("poisson-arrivals(gap=%g)", float64(p.MeanGap))
}

// Spec describes a workload to generate.
type Spec struct {
	N       int
	Sizes   SizeDistribution
	Arrival ArrivalProcess
}

// Generate draws n tasks with ids 0..n-1 using the given distribution
// and arrival process. Tasks are returned in arrival order.
func Generate(spec Spec, r *rng.RNG) []task.Task {
	if spec.Arrival == nil {
		spec.Arrival = AtStart{}
	}
	out := make([]task.Task, spec.N)
	var prev units.Seconds
	for i := range out {
		prev = spec.Arrival.Next(r, prev)
		out[i] = task.Task{
			ID:      task.ID(i),
			Size:    spec.Sizes.Sample(r),
			Arrival: prev,
		}
	}
	return out
}
