package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	// All-zero state would make xoshiro emit only zeros.
	allZero := true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Error("zero seed produced a degenerate all-zero sequence")
	}
}

func TestStreamIndependentOfParentDraws(t *testing.T) {
	a := New(7)
	sBefore := a.Stream(3)
	a.Uint64() // advance parent
	// Streams are derived from the parent state, so deriving after a draw
	// gives a different stream; but re-deriving from an identically seeded
	// parent must reproduce the original stream exactly.
	b := New(7)
	sAgain := b.Stream(3)
	for i := 0; i < 100; i++ {
		if sBefore.Uint64() != sAgain.Uint64() {
			t.Fatalf("stream derivation not reproducible at draw %d", i)
		}
	}
}

func TestStreamsDisjoint(t *testing.T) {
	parent := New(99)
	s1 := parent.Stream(1)
	s2 := parent.Stream(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams 1 and 2 collided %d times out of 1000", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(6)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(8)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.06*want {
			t.Errorf("Intn(%d): value %d drawn %d times, want ~%.0f", n, v, c, want)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(9)
	const n = 200000
	const mean, sd = 1000.0, 948.68 // paper's Fig 5 parameters (var 9e5)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal(mean, sd)
		sum += x
		sumSq += x * x
	}
	m := sum / n
	v := sumSq/n - m*m
	if math.Abs(m-mean) > 0.02*mean {
		t.Errorf("normal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(v-sd*sd) > 0.05*sd*sd {
		t.Errorf("normal variance = %v, want ~%v", v, sd*sd)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(10)
	for i := 0; i < 10000; i++ {
		x := r.TruncNormal(1000, 949, 1, 5000)
		if x < 1 || x > 5000 {
			t.Fatalf("TruncNormal out of bounds: %v", x)
		}
	}
}

func TestTruncNormalDegenerateIntervalClamps(t *testing.T) {
	r := New(11)
	// Mass essentially outside [1e9, 1e9+1]: must clamp, not hang.
	x := r.TruncNormal(0, 1, 1e9, 1e9+1)
	if x < 1e9 || x > 1e9+1 {
		t.Errorf("TruncNormal clamp failed: %v", x)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(12)
	const n = 200000
	const mean = 25.0
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(mean)
	}
	m := sum / n
	if math.Abs(m-mean) > 0.03*mean {
		t.Errorf("exponential mean = %v, want ~%v", m, mean)
	}
}

func TestPoissonSmallMean(t *testing.T) {
	r := New(13)
	const n = 200000
	const mean = 10.0 // Fig 10's Poisson mean
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := float64(r.Poisson(mean))
		sum += x
		sumSq += x * x
	}
	m := sum / n
	v := sumSq/n - m*m
	if math.Abs(m-mean) > 0.03*mean {
		t.Errorf("poisson(10) mean = %v, want ~%v", m, mean)
	}
	// For Poisson, variance == mean.
	if math.Abs(v-mean) > 0.06*mean {
		t.Errorf("poisson(10) variance = %v, want ~%v", v, mean)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	r := New(14)
	const n = 100000
	const mean = 100.0 // Fig 11's Poisson mean; exercises the PA path
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := float64(r.Poisson(mean))
		sum += x
		sumSq += x * x
	}
	m := sum / n
	v := sumSq/n - m*m
	if math.Abs(m-mean) > 0.02*mean {
		t.Errorf("poisson(100) mean = %v, want ~%v", m, mean)
	}
	if math.Abs(v-mean) > 0.08*mean {
		t.Errorf("poisson(100) variance = %v, want ~%v", v, mean)
	}
}

func TestPoissonNonNegative(t *testing.T) {
	f := func(seed uint64, meanRaw uint8) bool {
		mean := float64(meanRaw) // 0..255, crosses the Knuth/PA switch at 30
		r := New(seed)
		for i := 0; i < 50; i++ {
			if r.Poisson(mean) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoissonZeroMean(t *testing.T) {
	if got := New(1).Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := New(1).Poisson(-5); got != 0 {
		t.Errorf("Poisson(-5) = %d, want 0", got)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(15)
	for i := 0; i < 10000; i++ {
		x := r.Uniform(10, 1000) // Fig 7's uniform task-size range
		if x < 10 || x >= 1000 {
			t.Fatalf("Uniform(10,1000) = %v out of range", x)
		}
	}
}

func TestUniformPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uniform(hi<lo) did not panic")
		}
	}()
	New(1).Uniform(10, 5)
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(17)
	vals := []string{"a", "b", "c", "d", "e"}
	orig := map[string]int{}
	for _, v := range vals {
		orig[v]++
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := map[string]int{}
	for _, v := range vals {
		got[v]++
	}
	for k, c := range orig {
		if got[k] != c {
			t.Errorf("shuffle lost element %q", k)
		}
	}
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(math.MaxUint64, math.MaxUint64)
	// (2^64-1)^2 = 2^128 - 2^65 + 1
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Errorf("mul64(max,max) = (%d,%d)", hi, lo)
	}
	hi, lo = mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Errorf("mul64(2^32,2^32) = (%d,%d), want (1,0)", hi, lo)
	}
}

// schoolMul64 is the four-multiply 128-bit product mul64 was before it
// became bits.Mul64: the oracle TestMul64MatchesSchoolbook holds it to.
func schoolMul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + (w1 >> 32)
	lo = a * b
	return
}

// TestMul64MatchesSchoolbook: mul64 returns the schoolbook product for
// the edge operands (zero, one, the 32-bit boundaries, the maximum)
// paired with each other and for a million random pairs, so every
// Intn stream is unchanged.
func TestMul64MatchesSchoolbook(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	check := func(a, b uint64) {
		hi, lo := mul64(a, b)
		whi, wlo := schoolMul64(a, b)
		if hi != whi || lo != wlo {
			t.Fatalf("mul64(%d, %d) = (%d, %d), schoolbook (%d, %d)", a, b, hi, lo, whi, wlo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := New(104)
	for i := 0; i < 1_000_000; i++ {
		check(r.Uint64(), r.Uint64())
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(200)
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal(1000, 949)
	}
}

func BenchmarkPoissonSmall(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(10)
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(100)
	}
}
