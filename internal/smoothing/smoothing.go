// Package smoothing implements the exponential smoothing function of
// §3.6 of the paper: for a sequence a₁, a₂, …, the representative value
// is defined recursively as
//
//	Γ(aᵢ) = Γ(aᵢ₋₁) + ν·(aᵢ − Γ(aᵢ₋₁)),   Γ(a₀) = a₁,
//
// with the smoothing factor ν ∈ [0, 1] controlling how strongly recent
// observations dominate: ν = 0 freezes the first value, ν = 1 tracks the
// latest observation exactly.
//
// The scheduler uses smoothing "in several instances": per-link
// communication-cost estimates Γc, processor-rate estimates, and the
// time-to-first-idle estimate Γs that drives the dynamic batch size.
package smoothing

import "fmt"

// Smoother maintains the representative value of an observed sequence.
// The zero value is not usable; construct with New.
type Smoother struct {
	nu     float64
	value  float64
	primed bool
}

// New returns a Smoother with factor nu. It panics if nu is outside
// [0, 1] — a misconfigured smoothing factor silently corrupts every
// estimate downstream, so this is a programming error, not a runtime
// condition.
func New(nu float64) *Smoother {
	if nu < 0 || nu > 1 {
		panic(fmt.Sprintf("smoothing: factor %v outside [0,1]", nu))
	}
	return &Smoother{nu: nu}
}

// Observe incorporates the next sequence value and returns the updated
// representative value. The first observation primes the smoother
// (Γ(a₀) = a₁, per the paper).
func (s *Smoother) Observe(a float64) float64 {
	if !s.primed {
		s.value = a
		s.primed = true
	} else {
		s.value += s.nu * (a - s.value)
	}
	return s.value
}

// ValueOr returns the representative value, or fallback if the smoother
// has not observed anything yet.
func (s *Smoother) ValueOr(fallback float64) float64 {
	if !s.primed {
		return fallback
	}
	return s.value
}
