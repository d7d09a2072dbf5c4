// Package stats provides the descriptive statistics used by the
// experiment harness: means, variances, standard errors, quantiles and
// simple linear regression (used to verify the linear time-vs-rebalances
// relationship of the paper's Fig. 4).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or 0 when fewer
// than two samples are available.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Summary holds the aggregate description of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64
	StdDev   float64
	StdErr   float64
	Min      float64
	Max      float64
	Median   float64
}

// Summarize computes a Summary for xs. It returns ErrEmpty for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{
		N:        len(xs),
		Mean:     Mean(xs),
		Variance: Variance(xs),
	}
	s.StdDev = math.Sqrt(s.Variance)
	s.StdErr = s.StdDev / math.Sqrt(float64(s.N))
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Median = Quantile(xs, 0.5)
	return s, nil
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It returns 0 for an empty
// sample. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinReg holds the result of an ordinary-least-squares fit y = a + b·x.
type LinReg struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
}

// LinearRegression fits y = a + b·x by least squares. It returns an error
// if the inputs have different lengths or fewer than two points, or if all
// x values are identical (vertical line).
func LinearRegression(x, y []float64) (LinReg, error) {
	if len(x) != len(y) {
		return LinReg{}, errors.New("stats: x and y length mismatch")
	}
	if len(x) < 2 {
		return LinReg{}, errors.New("stats: need at least two points")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinReg{}, errors.New("stats: degenerate x values")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		var ssRes float64
		for i := range x {
			r := y[i] - (a + b*x[i])
			ssRes += r * r
		}
		r2 = 1 - ssRes/syy
	}
	return LinReg{Intercept: a, Slope: b, R2: r2}, nil
}
