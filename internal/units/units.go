// Package units defines the typed quantities used throughout pnsched:
// work in millions of floating-point operations (MFLOPs), processing
// rates in MFLOPs per second (written Mflop/s, following the paper), and
// simulated time in seconds.
//
// The paper measures task sizes in MFLOPs and processor execution rates
// in Mflop/s (via Dongarra's Linpack benchmark). Keeping these as distinct
// Go types prevents the classic unit-mixing bugs (adding a load to a time,
// dividing rate by work instead of work by rate) at compile time.
package units

import (
	"fmt"
	"math"
)

// MFlops is an amount of computational work, in millions of floating
// point operations. Task sizes and processor loads are MFlops values.
type MFlops float64

// Rate is a processing rate in MFLOPs per second (Mflop/s).
type Rate float64

// Seconds is a span of simulated (or measured) time.
type Seconds float64

// TimeOn returns the time needed to process w units of work at rate r.
// A non-positive rate yields +Inf: a stopped processor never finishes.
func (w MFlops) TimeOn(r Rate) Seconds {
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(w) / float64(r))
}

// WorkIn returns the amount of work rate r completes in d seconds.
// Negative durations are treated as zero.
func (r Rate) WorkIn(d Seconds) MFlops {
	if d <= 0 || r <= 0 {
		return 0
	}
	return MFlops(float64(r) * float64(d))
}

// Scale returns the rate scaled by the dimensionless factor f, clamped
// below at zero. It is used by availability models: a processor at 40%
// availability delivers r.Scale(0.4).
func (r Rate) Scale(f float64) Rate {
	s := Rate(float64(r) * f)
	if s < 0 {
		return 0
	}
	return s
}

// String implements fmt.Stringer.
func (w MFlops) String() string { return fmt.Sprintf("%.2f MFLOPs", float64(w)) }

// String implements fmt.Stringer.
func (r Rate) String() string { return fmt.Sprintf("%.2f Mflop/s", float64(r)) }

// String implements fmt.Stringer.
func (s Seconds) String() string { return fmt.Sprintf("%.3fs", float64(s)) }

// IsInf reports whether the duration is infinite (unreachable event).
func (s Seconds) IsInf() bool { return math.IsInf(float64(s), 0) }

// Inf returns the positive-infinite duration.
func Inf() Seconds { return Seconds(math.Inf(1)) }

// SumRates returns the aggregate processing rate of a set of processors,
// the denominator of the paper's theoretical-optimum expression ψ.
func SumRates(rs []Rate) Rate {
	var total Rate
	for _, r := range rs {
		total += r
	}
	return total
}
