package smoothing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFirstObservationPrimes(t *testing.T) {
	s := New(0.5)
	if v := s.Observe(10); v != 10 {
		t.Errorf("first observation = %v, want 10 (Γ(a0)=a1)", v)
	}
}

func TestNuZeroFreezesFirstValue(t *testing.T) {
	s := New(0)
	s.Observe(7)
	for _, a := range []float64{100, -3, 42} {
		if v := s.Observe(a); v != 7 {
			t.Errorf("nu=0 moved: %v", v)
		}
	}
}

func TestNuOneTracksLatest(t *testing.T) {
	s := New(1)
	s.Observe(7)
	for _, a := range []float64{100, -3, 42} {
		if v := s.Observe(a); v != a {
			t.Errorf("nu=1 did not track: got %v want %v", v, a)
		}
	}
}

func TestRecurrence(t *testing.T) {
	// Hand-computed: Γ1=10; Γ2=10+0.5(20-10)=15; Γ3=15+0.5(10-15)=12.5
	s := New(0.5)
	want := []float64{10, 15, 12.5}
	for i, a := range []float64{10, 20, 10} {
		if got := s.Observe(a); got != want[i] {
			t.Errorf("Γ%d = %v, want %v", i+1, got, want[i])
		}
	}
}

func TestValueBeforePriming(t *testing.T) {
	s := New(0.3)
	if v := s.ValueOr(99); v != 99 {
		t.Errorf("ValueOr fallback = %v, want 99", v)
	}
	s.Observe(5)
	if v := s.ValueOr(99); v != 5 {
		t.Errorf("ValueOr after observe = %v, want 5", v)
	}
}

func TestPanicsOutsideUnitInterval(t *testing.T) {
	for _, nu := range []float64{-0.1, 1.1, math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", nu)
				}
			}()
			New(nu)
		}()
	}
}

// The representative value must always lie within the range of
// observations seen so far (convexity of the update).
func TestValueBoundedByObservations(t *testing.T) {
	f := func(nuRaw uint8, raw []float64) bool {
		nu := float64(nuRaw) / 255.0
		s := New(nu)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, a := range raw {
			if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e12 {
				continue
			}
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
			v := s.Observe(a)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Constant sequences must be fixed points for every nu.
func TestConstantSequenceFixedPoint(t *testing.T) {
	f := func(nuRaw uint8, cRaw int16, nRaw uint8) bool {
		nu := float64(nuRaw) / 255.0
		c := float64(cRaw)
		n := int(nRaw%50) + 1
		s := New(nu)
		for i := 0; i < n; i++ {
			if v := s.Observe(c); v != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// With 0 < nu ≤ 1, the estimate converges geometrically to a new steady
// level after a step change.
func TestStepResponseConverges(t *testing.T) {
	s := New(0.5)
	s.Observe(0)
	var v float64
	for i := 0; i < 60; i++ {
		v = s.Observe(100)
	}
	if math.Abs(v-100) > 1e-9 {
		t.Errorf("step response did not converge: %v", v)
	}
}
