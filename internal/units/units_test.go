package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeOn(t *testing.T) {
	tests := []struct {
		name string
		w    MFlops
		r    Rate
		want Seconds
	}{
		{"unit work unit rate", 1, 1, 1},
		{"thousand over hundred", 1000, 100, 10},
		{"zero work", 0, 50, 0},
		{"fractional", 1, 4, 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.w.TimeOn(tt.r); got != tt.want {
				t.Errorf("TimeOn(%v, %v) = %v, want %v", tt.w, tt.r, got, tt.want)
			}
		})
	}
}

func TestTimeOnZeroRateIsInf(t *testing.T) {
	if got := MFlops(100).TimeOn(0); !got.IsInf() {
		t.Errorf("TimeOn with zero rate = %v, want +Inf", got)
	}
	if got := MFlops(100).TimeOn(-5); !got.IsInf() {
		t.Errorf("TimeOn with negative rate = %v, want +Inf", got)
	}
}

func TestWorkIn(t *testing.T) {
	if got := Rate(100).WorkIn(2); got != 200 {
		t.Errorf("WorkIn = %v, want 200", got)
	}
	if got := Rate(100).WorkIn(-1); got != 0 {
		t.Errorf("WorkIn negative duration = %v, want 0", got)
	}
	if got := Rate(0).WorkIn(10); got != 0 {
		t.Errorf("WorkIn zero rate = %v, want 0", got)
	}
}

func TestScale(t *testing.T) {
	if got := Rate(100).Scale(0.4); math.Abs(float64(got)-40) > 1e-12 {
		t.Errorf("Scale = %v, want 40", got)
	}
	if got := Rate(100).Scale(-1); got != 0 {
		t.Errorf("Scale negative factor = %v, want 0 (clamped)", got)
	}
	if got := Rate(100).Scale(0); got != 0 {
		t.Errorf("Scale zero factor = %v, want 0", got)
	}
}

// TimeOn and WorkIn must be inverse operations for positive quantities.
func TestTimeOnWorkInRoundTrip(t *testing.T) {
	f := func(work uint16, rate uint16) bool {
		w := MFlops(work) + 1 // avoid zero
		r := Rate(rate) + 1
		d := w.TimeOn(r)
		back := r.WorkIn(d)
		return math.Abs(float64(back-w)) < 1e-9*float64(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Processing time must be monotone: more work never takes less time.
func TestTimeOnMonotoneInWork(t *testing.T) {
	f := func(a, b uint16, rate uint16) bool {
		r := Rate(rate) + 1
		wa, wb := MFlops(a), MFlops(b)
		if wa > wb {
			wa, wb = wb, wa
		}
		return wa.TimeOn(r) <= wb.TimeOn(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Faster processors never take longer.
func TestTimeOnAntitoneInRate(t *testing.T) {
	f := func(work uint16, a, b uint16) bool {
		w := MFlops(work)
		ra, rb := Rate(a)+1, Rate(b)+1
		if ra > rb {
			ra, rb = rb, ra
		}
		return w.TimeOn(ra) >= w.TimeOn(rb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSums(t *testing.T) {
	if got := SumRates([]Rate{10, 20}); got != 30 {
		t.Errorf("SumRates = %v, want 30", got)
	}
}

func TestStrings(t *testing.T) {
	if s := MFlops(1.5).String(); s != "1.50 MFLOPs" {
		t.Errorf("MFlops.String = %q", s)
	}
	if s := Rate(2.5).String(); s != "2.50 Mflop/s" {
		t.Errorf("Rate.String = %q", s)
	}
	if s := Seconds(0.25).String(); s != "0.250s" {
		t.Errorf("Seconds.String = %q", s)
	}
}
