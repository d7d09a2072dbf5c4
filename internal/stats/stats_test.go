package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); got != tt.want {
				t.Errorf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEq(got, 4.571428571, 1e-6) {
		t.Errorf("Variance = %v, want ~4.5714", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance single = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance nil = %v, want 0", got)
	}
}

func TestVarianceNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e8 {
				xs = append(xs, x)
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{1, 4},
		{0.5, 2.5},
		{0.25, 1.75},
		{-0.5, 1}, // clamped
		{1.5, 4},  // clamped
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestLinearRegressionExact(t *testing.T) {
	// y = 2 + 3x exactly: the Fig-4 check relies on slope and R².
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{2, 5, 8, 11, 14}
	lr, err := LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(lr.Slope, 3, 1e-9) || !almostEq(lr.Intercept, 2, 1e-9) {
		t.Errorf("fit = %+v, want slope 3 intercept 2", lr)
	}
	if !almostEq(lr.R2, 1, 1e-9) {
		t.Errorf("R2 = %v, want 1", lr.R2)
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5}
	y := []float64{0.1, 0.9, 2.2, 2.8, 4.1, 5.05}
	lr, err := LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Slope < 0.9 || lr.Slope > 1.1 {
		t.Errorf("slope = %v, want ~1", lr.Slope)
	}
	if lr.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99", lr.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("want error for single point")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := LinearRegression([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("want error for degenerate x")
	}
}

func TestStdErrShrinksWithN(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := append(append([]float64{}, a...), a...)
	b = append(b, b...) // 4x the samples, same spread
	sa, _ := Summarize(a)
	sb, _ := Summarize(b)
	if sb.StdErr >= sa.StdErr {
		t.Errorf("StdErr did not shrink: %v vs %v", sb.StdErr, sa.StdErr)
	}
}
