package workload

import (
	"math"
	"testing"

	"pnsched/internal/rng"
	"pnsched/internal/stats"
	"pnsched/internal/units"
)

func sizesOf(spec Spec, seed uint64) []float64 {
	ts := Generate(spec, rng.New(seed))
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = float64(t.Size)
	}
	return out
}

func TestGenerateIDsAndCount(t *testing.T) {
	ts := Generate(Spec{N: 100, Sizes: Constant{Size: 5}}, rng.New(1))
	if len(ts) != 100 {
		t.Fatalf("len = %d", len(ts))
	}
	for i, tk := range ts {
		if int(tk.ID) != i {
			t.Errorf("task %d has id %d", i, tk.ID)
		}
		if tk.Size != 5 {
			t.Errorf("constant size = %v", tk.Size)
		}
		if tk.Arrival != 0 {
			t.Errorf("default arrival = %v, want 0 (AtStart)", tk.Arrival)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{N: 500, Sizes: Uniform{Lo: 10, Hi: 1000}}
	a := Generate(spec, rng.New(7))
	b := Generate(spec, rng.New(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at task %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUniformRangeAndMean(t *testing.T) {
	// Fig 7's distribution: uniform 10..1000 MFLOPs.
	spec := Spec{N: 20000, Sizes: Uniform{Lo: 10, Hi: 1000}}
	xs := sizesOf(spec, 2)
	for _, x := range xs {
		if x < 10 || x >= 1000 {
			t.Fatalf("uniform sample %v out of range", x)
		}
	}
	if m := stats.Mean(xs); math.Abs(m-505) > 15 {
		t.Errorf("uniform mean = %v, want ~505", m)
	}
}

func TestNormalMoments(t *testing.T) {
	// Figs 5-6: mean 1000 MFLOPs, variance 9e5.
	spec := Spec{N: 30000, Sizes: Normal{Mean: 1000, Variance: 9e5}}
	xs := sizesOf(spec, 3)
	m := stats.Mean(xs)
	// Clamping at 1 MFLOP biases the mean up ~7% with these parameters.
	if m < 950 || m > 1150 {
		t.Errorf("normal mean = %v, want ~1000-1100", m)
	}
	v := stats.Variance(xs)
	if v < 0.55*9e5 || v > 1.1*9e5 {
		t.Errorf("normal variance = %v, want ~9e5 (clamping shrinks it)", v)
	}
	for _, x := range xs {
		if x < 1 {
			t.Fatalf("normal sample below 1 MFLOP: %v", x)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, mean := range []float64{10, 100} { // Figs 10 and 11
		spec := Spec{N: 30000, Sizes: Poisson{Mean: units.MFlops(mean)}}
		xs := sizesOf(spec, 4)
		m := stats.Mean(xs)
		if math.Abs(m-mean) > 0.05*mean {
			t.Errorf("poisson(%v) mean = %v", mean, m)
		}
		for _, x := range xs {
			if x < 1 {
				t.Fatalf("poisson sample below 1: %v", x)
			}
			if x != math.Trunc(x) {
				t.Fatalf("poisson sample not integral: %v", x)
			}
		}
	}
}

func TestPoissonArrivalsMonotone(t *testing.T) {
	spec := Spec{
		N:       1000,
		Sizes:   Constant{Size: 10},
		Arrival: PoissonArrivals{MeanGap: 2},
	}
	ts := Generate(spec, rng.New(5))
	var prev units.Seconds
	var gaps []float64
	for _, tk := range ts {
		if tk.Arrival < prev {
			t.Fatalf("arrivals not monotone: %v after %v", tk.Arrival, prev)
		}
		gaps = append(gaps, float64(tk.Arrival-prev))
		prev = tk.Arrival
	}
	if m := stats.Mean(gaps); math.Abs(m-2) > 0.25 {
		t.Errorf("mean inter-arrival gap = %v, want ~2", m)
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		d    SizeDistribution
		want string
	}{
		{Uniform{10, 1000}, "uniform[10,1000]"},
		{Normal{1000, 9e5}, "normal(mean=1000,var=900000)"},
		{Poisson{100}, "poisson(mean=100)"},
		{Constant{5}, "constant(5)"},
	}
	for _, c := range cases {
		if got := c.d.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
	if (AtStart{}).Name() == "" || (PoissonArrivals{MeanGap: 1}).Name() == "" {
		t.Error("arrival process names must be non-empty")
	}
}

func TestMeanSize(t *testing.T) {
	if got := (Uniform{10, 1000}).MeanSize(); got != 505 {
		t.Errorf("uniform MeanSize = %v", got)
	}
	if got := (Normal{1000, 9e5}).MeanSize(); got != 1000 {
		t.Errorf("normal MeanSize = %v", got)
	}
	if got := (Poisson{100}).MeanSize(); got != 100 {
		t.Errorf("poisson MeanSize = %v", got)
	}
	if got := (Constant{7}).MeanSize(); got != 7 {
		t.Errorf("constant MeanSize = %v", got)
	}
}

func TestTinySizesClamped(t *testing.T) {
	// A Poisson with tiny mean frequently draws 0; sizes must clamp to 1.
	spec := Spec{N: 1000, Sizes: Poisson{Mean: 0.1}}
	for _, x := range sizesOf(spec, 6) {
		if x < 1 {
			t.Fatalf("sample %v below the 1-MFLOP floor", x)
		}
	}
}

func TestDistributionByName(t *testing.T) {
	for name, want := range map[string]SizeDistribution{
		"normal":   Normal{Mean: 100, Variance: 9},
		"uniform":  Uniform{Lo: 10, Hi: 50},
		"poisson":  Poisson{Mean: 100},
		"constant": Constant{Size: 100},
	} {
		got, err := DistributionByName(name, 100, 9, 10, 50)
		if err != nil || got != want {
			t.Errorf("%s: got %#v, %v; want %#v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "Uniform", "zipf"} {
		if d, err := DistributionByName(name, 100, 9, 10, 50); err == nil {
			t.Errorf("%q accepted as %#v", name, d)
		}
	}
}
