// Package rng provides a deterministic, seedable random number generator
// with the distributions the paper's workloads require: uniform, normal
// and Poisson (§4 "Our task sizes are randomly generated using uniform,
// normal, and Poisson distributions"), plus exponential for inter-arrival
// processes.
//
// The generator is xoshiro256** seeded through splitmix64. It is
// independent of math/rand so that experiment results are reproducible
// across Go releases, and it supports cheap derived streams so that
// parallel experiment repeats draw from statistically independent
// sequences while remaining fully deterministic.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo-random generator. It is not safe for
// concurrent use; derive one stream per goroutine with Stream.
type RNG struct {
	s [4]uint64
	// cached second normal deviate from the polar method
	hasGauss bool
	gauss    float64
}

// splitmix64 advances the seed-expansion state and returns the next value.
// It is the recommended seeder for the xoshiro family: it guarantees the
// xoshiro state is never all-zero and decorrelates nearby seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Any seed value,
// including zero, produces a valid non-degenerate state.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return r
}

// Stream returns a new generator whose sequence is statistically
// independent of r's (and of r's other streams with different ids).
// Deriving streams does not perturb r's own sequence, so the set of
// streams produced for a given (seed, id) pair is stable regardless of
// interleaving — the property that makes parallel sweeps deterministic.
func (r *RNG) Stream(id uint64) *RNG {
	// Mix the current state with the id through splitmix64 without
	// advancing r.
	base := r.s[0] ^ (r.s[1] << 1) ^ (r.s[2] << 2) ^ (r.s[3] << 3)
	sm := base ^ (id * 0x9e3779b97f4a7c15)
	child := &RNG{}
	for i := range child.s {
		child.s[i] = splitmix64(&sm)
	}
	return child
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }

// ShuffleInts permutes the slice in place (Fisher–Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes n elements in place using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Uniform returns a uniform value in [lo, hi). It panics if hi < lo.
func (r *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform called with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal deviate (mean 0, stddev 1) using
// the Marsaglia polar method; the second deviate of each pair is cached.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Normal returns a normal deviate with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// TruncNormal returns a normal deviate with the given mean and standard
// deviation, resampled until it lies in [lo, hi]. The caller must ensure
// a non-trivial probability mass inside the interval; after 1000 failed
// draws the value is clamped, so the function always terminates.
func (r *RNG) TruncNormal(mean, stddev, lo, hi float64) float64 {
	for i := 0; i < 1000; i++ {
		x := r.Normal(mean, stddev)
		if x >= lo && x <= hi {
			return x
		}
	}
	x := r.Normal(mean, stddev)
	return math.Max(lo, math.Min(hi, x))
}

// ExpFloat64 returns an exponential deviate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exponential returns an exponential deviate with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return mean * r.ExpFloat64()
}

// Poisson returns a Poisson-distributed integer with the given mean.
// Knuth's multiplication method is used for small means; for large means
// (λ > 30) the rejection method PA of Atkinson is used, which runs in
// O(1) expected time.
func (r *RNG) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		return r.poissonKnuth(mean)
	default:
		return r.poissonPA(mean)
	}
}

func (r *RNG) poissonKnuth(mean float64) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonPA implements Atkinson's rejection algorithm PA for λ ≥ 30.
func (r *RNG) poissonPA(mean float64) int {
	c := 0.767 - 3.36/mean
	beta := math.Pi / math.Sqrt(3*mean)
	alpha := beta * mean
	k := math.Log(c) - mean - math.Log(beta)
	for {
		u := r.Float64()
		if u == 0 || u == 1 {
			continue
		}
		x := (alpha - math.Log((1-u)/u)) / beta
		n := math.Floor(x + 0.5)
		if n < 0 {
			continue
		}
		v := r.Float64()
		if v == 0 {
			continue
		}
		y := alpha - beta*x
		lhs := y + math.Log(v/(1+math.Exp(y))/(1+math.Exp(y)))
		rhs := k + n*math.Log(mean) - logFactorial(n)
		if lhs <= rhs {
			return int(n)
		}
	}
}

// logFactorial returns ln(n!) via the log-gamma function.
func logFactorial(n float64) float64 {
	lg, _ := math.Lgamma(n + 1)
	return lg
}
