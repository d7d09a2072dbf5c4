package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"pnsched/internal/rng"
	"pnsched/internal/units"
)

func TestFullAvailability(t *testing.T) {
	p := &Processor{ID: 0, BaseRate: 100, Avail: Full{}}
	if got := p.RateAt(0); got != 100 {
		t.Errorf("RateAt(0) = %v", got)
	}
	if got := p.RateAt(1e9); got != 100 {
		t.Errorf("RateAt(1e9) = %v", got)
	}
	if !(Full{}).NextChange(5).IsInf() {
		t.Error("Full.NextChange must be Inf")
	}
}

func TestCompletionTimeConstantRate(t *testing.T) {
	p := &Processor{BaseRate: 100, Avail: Full{}}
	// 1000 MFLOPs at 100 Mflop/s = 10 s.
	if got := p.CompletionTime(5, 1000); got != 15 {
		t.Errorf("CompletionTime = %v, want 15", got)
	}
	if got := p.CompletionTime(5, 0); got != 5 {
		t.Errorf("zero work completion = %v, want 5 (immediate)", got)
	}
}

func TestCompletionTimeAcrossOutage(t *testing.T) {
	// Full rate until t=10, then off forever.
	p := &Processor{BaseRate: 10, Avail: OffAfter{Cutoff: 10}}
	// 50 MFLOPs from t=0 at 10 Mflop/s: finishes at t=5, before cutoff.
	if got := p.CompletionTime(0, 50); got != 5 {
		t.Errorf("before cutoff = %v, want 5", got)
	}
	// 200 MFLOPs: only 100 can complete before the cutoff → never done.
	if got := p.CompletionTime(0, 200); !got.IsInf() {
		t.Errorf("work across permanent outage = %v, want Inf", got)
	}
	// Starting after the cutoff: immediately impossible.
	if got := p.CompletionTime(20, 1); !got.IsInf() {
		t.Errorf("start after cutoff = %v, want Inf", got)
	}
}

func TestCompletionTimeThroughTrace(t *testing.T) {
	tr, err := NewTrace(
		[]units.Seconds{0, 10, 20},
		[]float64{1, 0, 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := &Processor{BaseRate: 10, Avail: tr}
	// 150 MFLOPs from t=0: 100 done by t=10; outage 10..20; then at
	// rate 5, remaining 50 takes 10s → finish t=30.
	if got := p.CompletionTime(0, 150); math.Abs(float64(got)-30) > 1e-9 {
		t.Errorf("CompletionTime = %v, want 30", got)
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace(nil, nil); err == nil {
		t.Error("empty trace must error")
	}
	if _, err := NewTrace([]units.Seconds{1}, []float64{1}); err == nil {
		t.Error("trace not starting at 0 must error")
	}
	if _, err := NewTrace([]units.Seconds{0, 0}, []float64{1, 1}); err == nil {
		t.Error("non-increasing times must error")
	}
	if _, err := NewTrace([]units.Seconds{0}, []float64{1.5}); err == nil {
		t.Error("availability > 1 must error")
	}
	if _, err := NewTrace([]units.Seconds{0}, []float64{1, 1}); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestTraceAtAndNextChange(t *testing.T) {
	tr, err := NewTrace([]units.Seconds{0, 5}, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.At(0); got != 0.2 {
		t.Errorf("At(0) = %v", got)
	}
	if got := tr.At(4.99); got != 0.2 {
		t.Errorf("At(4.99) = %v", got)
	}
	if got := tr.At(5); got != 0.8 {
		t.Errorf("At(5) = %v", got)
	}
	if got := tr.At(-3); got != 0.2 {
		t.Errorf("At(-3) = %v (negative clamps to 0)", got)
	}
	if got := tr.NextChange(0); got != 5 {
		t.Errorf("NextChange(0) = %v", got)
	}
	if got := tr.NextChange(5); !got.IsInf() {
		t.Errorf("NextChange(5) = %v, want Inf", got)
	}
}

func TestRandomWalkBoundsAndDeterminism(t *testing.T) {
	mk := func() *RandomWalk {
		return NewRandomWalk(10, 0.2, 0.3, 0.9, rng.New(77))
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		tm := units.Seconds(i) * 7
		va, vb := a.At(tm), b.At(tm)
		if va != vb {
			t.Fatalf("random walk not deterministic at t=%v", tm)
		}
		if va < 0.3-1e-12 || va > 1+1e-12 {
			t.Fatalf("availability %v outside [0.3, 1] at t=%v", va, tm)
		}
	}
}

func TestRandomWalkPiecewiseConstant(t *testing.T) {
	w := NewRandomWalk(10, 0.2, 0, 0.5, rng.New(3))
	// Within one interval the value must not change.
	v0 := w.At(0)
	if w.At(9.999) != v0 {
		t.Error("value changed within an interval")
	}
	if got := w.NextChange(3); got != 10 {
		t.Errorf("NextChange(3) = %v, want 10", got)
	}
	if got := w.NextChange(10); got != 20 {
		t.Errorf("NextChange(10) = %v, want 20", got)
	}
}

func TestRandomWalkValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRandomWalk(0, 0.1, 0, 0.5, rng.New(1)) },
		func() { NewRandomWalk(10, 0.1, -0.1, 0.5, rng.New(1)) },
		func() { NewRandomWalk(10, 0.1, 0.6, 0.5, rng.New(1)) },
		func() { NewRandomWalk(10, 0.1, 0, 1.5, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid random walk config did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestSinusoidalBounds(t *testing.T) {
	s := Sinusoidal{Mean: 0.6, Amplitude: 0.8, Period: 100} // intentionally clips
	for i := 0; i < 1000; i++ {
		v := s.At(units.Seconds(i))
		if v < 0 || v > 1 {
			t.Fatalf("sinusoidal availability %v outside [0,1]", v)
		}
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
}

func TestSinusoidalStepConsistency(t *testing.T) {
	s := Sinusoidal{Mean: 0.5, Amplitude: 0.3, Period: 320}
	// Step is Period/32 = 10s; within a step the value is constant.
	if s.At(0) != s.At(9.99) {
		t.Error("value changed within a quantisation step")
	}
	if got := s.NextChange(0); got != 10 {
		t.Errorf("NextChange(0) = %v, want 10", got)
	}
	// Value must actually vary across the period.
	if s.At(0) == s.At(80) {
		t.Error("sinusoid appears constant")
	}
}

func TestOffAfter(t *testing.T) {
	o := OffAfter{Cutoff: 100}
	if o.At(99.9) != 1 || o.At(100) != 0 || o.At(1e9) != 0 {
		t.Error("OffAfter availability wrong")
	}
	if got := o.NextChange(0); got != 100 {
		t.Errorf("NextChange(0) = %v", got)
	}
	if !o.NextChange(100).IsInf() {
		t.Error("NextChange after cutoff must be Inf")
	}
}

func TestNewHeterogeneous(t *testing.T) {
	c := NewHeterogeneous(50, 50, 500, rng.New(42))
	if c.M() != 50 {
		t.Fatalf("M = %d", c.M())
	}
	distinct := map[units.Rate]bool{}
	for i, p := range c.Procs {
		if p.ID != i {
			t.Errorf("proc %d has ID %d", i, p.ID)
		}
		if p.BaseRate < 50 || p.BaseRate >= 500 {
			t.Errorf("rate %v outside [50,500)", p.BaseRate)
		}
		distinct[p.BaseRate] = true
	}
	if len(distinct) < 40 {
		t.Errorf("only %d distinct rates among 50 — not heterogeneous", len(distinct))
	}
}

func TestNewHeterogeneousValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHeterogeneous(0, 1, 2, rng.New(1)) },
		func() { NewHeterogeneous(5, 0, 2, rng.New(1)) },
		func() { NewHeterogeneous(5, 3, 2, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid cluster config did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestClusterAggregates(t *testing.T) {
	c := New([]units.Rate{100, 200, 300})
	if got := c.TotalRateAt(0); got != 600 {
		t.Errorf("TotalRateAt = %v", got)
	}
	if got := c.Procs[1].RateAt(0); got != 200 {
		t.Errorf("Procs[1].RateAt = %v", got)
	}
}

func TestWithAvailability(t *testing.T) {
	c := New([]units.Rate{100, 200})
	varied := c.WithAvailability(func(i int) AvailabilityModel {
		return OffAfter{Cutoff: units.Seconds(10 * (i + 1))}
	})
	if varied.Procs[0].RateAt(5) != 100 || varied.Procs[0].RateAt(15) != 0 {
		t.Error("availability override not applied")
	}
	// Original cluster untouched.
	if c.Procs[0].RateAt(15) != 100 {
		t.Error("WithAvailability mutated the source cluster")
	}
}

// NextChange must be strictly increasing even when queried at its own
// returned boundaries — floating-point step accumulation once made
// Sinusoidal.NextChange return its input, stalling work integration.
func TestNextChangeStrictlyAdvances(t *testing.T) {
	models := []AvailabilityModel{
		Sinusoidal{Mean: 0.9, Amplitude: 0.05, Period: units.Seconds(390.54867968581877)},
		Sinusoidal{Mean: 0.7, Amplitude: 0.25, Period: 163},
		NewRandomWalk(units.Seconds(12.204646240181887), 0.2, 0.2, 0.9, rng.New(1)),
		NewMarkovOnOff(17.77, 3.33, 1, 0.2, rng.New(2)),
	}
	for _, m := range models {
		tm := units.Seconds(0)
		for i := 0; i < 5000; i++ {
			nc := m.NextChange(tm)
			if nc <= tm {
				t.Fatalf("%s: NextChange(%.12f) = %.12f did not advance (step %d)",
					m.Name(), float64(tm), float64(nc), i)
			}
			tm = nc
		}
	}
}

// Completion time must be monotone in work for any start time.
func TestCompletionMonotoneInWork(t *testing.T) {
	p := &Processor{BaseRate: 50, Avail: Sinusoidal{Mean: 0.6, Amplitude: 0.4, Period: 40}}
	f := func(aRaw, bRaw uint16, startRaw uint8) bool {
		wa, wb := units.MFlops(aRaw), units.MFlops(bRaw)
		if wa > wb {
			wa, wb = wb, wa
		}
		start := units.Seconds(startRaw)
		return p.CompletionTime(start, wa) <= p.CompletionTime(start, wb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Work computed via CompletionTime must round-trip: integrating the rate
// between start and completion recovers the requested work.
func TestCompletionTimeIntegration(t *testing.T) {
	tr, err := NewTrace(
		[]units.Seconds{0, 10, 25, 40},
		[]float64{1, 0.25, 0.75, 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := &Processor{BaseRate: 20, Avail: tr}
	work := units.MFlops(500)
	finish := p.CompletionTime(2, work)
	// Numerically integrate rate from 2 to finish with fine steps.
	var done float64
	const dt = 0.001
	for t0 := 2.0; t0 < float64(finish); t0 += dt {
		step := math.Min(dt, float64(finish)-t0)
		done += float64(p.RateAt(units.Seconds(t0))) * step
	}
	if math.Abs(done-float64(work)) > 1 {
		t.Errorf("integrated work = %v, want %v", done, work)
	}
}
