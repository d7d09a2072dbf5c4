package experiments

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"pnsched"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	const n = 100
	var hits [n]int32
	parallelFor(n, 8, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Errorf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForSequentialFallback(t *testing.T) {
	var order []int
	parallelFor(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Errorf("sequential fallback out of order: %v", order)
		}
	}
}

func TestParallelForEdgeCases(t *testing.T) {
	ran := false
	parallelFor(0, 4, func(int) { ran = true })
	if ran {
		t.Error("zero jobs executed something")
	}
	count := 0
	parallelFor(1, 100, func(int) { count++ })
	if count != 1 {
		t.Errorf("single job ran %d times", count)
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{Paper(), Default(), Fast()} {
		if p.Procs <= 0 || p.Repeats <= 0 || p.Generations <= 0 {
			t.Errorf("profile %s has zero fields: %+v", p.Name, p)
		}
		if p.RateLo <= 0 || p.RateHi < p.RateLo {
			t.Errorf("profile %s rate bounds invalid", p.Name)
		}
	}
	if Paper().Tasks != 10000 {
		t.Error("paper profile must schedule 10,000 tasks (abstract)")
	}
	if Paper().Procs != 50 {
		t.Error("paper profile must use 50 processors (abstract)")
	}
	if Paper().Fig3Runs != 50 {
		t.Error("paper Fig3 averages 50 runs (§3.5)")
	}
	if Paper().Repeats != 20 {
		t.Error("paper sweeps average 20 schedules per point (§4.3)")
	}
}

func TestSchedulersOrderAndNames(t *testing.T) {
	specs := Schedulers(Fast(), true)
	if len(specs) != 7 {
		t.Fatalf("want 7 schedulers, got %d", len(specs))
	}
	for i, s := range specs {
		if s.Name != pnsched.PaperOrder[i] {
			t.Errorf("scheduler %d = %s, want %s", i, s.Name, pnsched.PaperOrder[i])
		}
		inst := pnsched.MustNew(s)
		if inst.Name() != s.Name {
			t.Errorf("instance name %q != spec name %q", inst.Name(), s.Name)
		}
	}
}

func TestSchedulerInstancesIndependent(t *testing.T) {
	specs := Schedulers(Fast(), true)
	for _, s := range specs {
		a, b := pnsched.MustNew(s), pnsched.MustNew(s)
		if s.Name == "EF" || s.Name == "LL" || s.Name == "MM" || s.Name == "MX" {
			continue // stateless values may be identical
		}
		if a == b {
			t.Errorf("%s instances are shared", s.Name)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := RunNamed("12", Fast()); err == nil {
		t.Error("unknown figure accepted")
	}
	if _, err := RunNamed("0", Fast()); err == nil {
		t.Error("figure 0 accepted")
	}
}

func TestFig3FastShape(t *testing.T) {
	p := Fast()
	res := Fig3(p)
	if len(res.Pure) != p.Generations+1 || len(res.One) != p.Generations+1 || len(res.Fifty) != p.Generations+1 {
		t.Fatalf("curve lengths: %d %d %d", len(res.Pure), len(res.One), len(res.Fifty))
	}
	for _, curve := range [][]float64{res.Pure, res.One, res.Fifty} {
		if curve[0] != 1.0 {
			t.Errorf("curve must start at 1.0, got %v", curve[0])
		}
		for g := 1; g < len(curve); g++ {
			if curve[g] > curve[g-1]+1e-12 {
				t.Fatalf("makespan fraction increased at generation %d", g)
			}
		}
		if last := curve[len(curve)-1]; last > 1.0 || last <= 0 {
			t.Errorf("final fraction %v out of range", last)
		}
	}
	// Rebalancing must help (the Fig-3 headline): 50 rebalances end at
	// or below the pure GA.
	if res.Fifty[p.Generations] > res.Pure[p.Generations] {
		t.Errorf("50 rebalances (%v) worse than pure GA (%v)",
			res.Fifty[p.Generations], res.Pure[p.Generations])
	}
	var sb strings.Builder
	res.WritePlot(&sb)
	res.Table().Render(&sb)
	if sb.Len() == 0 {
		t.Error("no rendered output")
	}
}

func TestFig4FastShape(t *testing.T) {
	p := Fast()
	res := Fig4(p)
	if len(res.Rebalances) != len(res.Seconds) || len(res.Rebalances) < 3 {
		t.Fatalf("points: %v", res.Rebalances)
	}
	for i, s := range res.Seconds {
		if s <= 0 {
			t.Errorf("non-positive timing at %d rebalances", res.Rebalances[i])
		}
	}
	// Time grows with rebalances: last point above first.
	if res.Seconds[len(res.Seconds)-1] <= res.Seconds[0] {
		t.Errorf("time did not grow with rebalances: %v", res.Seconds)
	}
	if res.Fit.Slope <= 0 {
		t.Errorf("fit slope = %v, want positive", res.Fit.Slope)
	}
	var sb strings.Builder
	res.Table().Render(&sb)
	res.WritePlot(&sb)
	if !strings.Contains(sb.String(), "rebalances") {
		t.Error("table missing header")
	}
}

func TestFig5FastShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Profile) *EfficiencySweep
		dist string
	}{
		{"5", Fig5, "normal"},
		{"7", Fig7, "uniform"},
	} {
		t.Run("fig"+tc.name, func(t *testing.T) {
			res := tc.run(Fast())
			if !slices.Equal(res.Schedulers, pnsched.PaperOrder) {
				t.Fatalf("schedulers = %v, want %v", res.Schedulers, pnsched.PaperOrder)
			}
			if len(res.X) != 10 {
				t.Fatalf("x points = %d", len(res.X))
			}
			for si, name := range res.Schedulers {
				for xi, e := range res.Eff[si] {
					if e <= 0 || e > 1 {
						t.Errorf("%s efficiency[%d] = %v out of (0,1]", name, xi, e)
					}
				}
			}
			// Efficiency must increase as communication gets cheaper (x
			// up): compare the cheapest-comm point to the dearest
			// (monotonicity holds in the mean, pointwise noise aside).
			for si, name := range res.Schedulers {
				first, last := res.Eff[si][0], res.Eff[si][len(res.X)-1]
				if last <= first {
					t.Errorf("%s efficiency did not rise with cheaper comm: %v → %v", name, first, last)
				}
			}
			var sb strings.Builder
			RenderFigure(res, &sb)
			for _, want := range []string{"PN", tc.dist} {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("output missing %q", want)
				}
			}
		})
	}
}

func TestFig10FastShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Profile) *MakespanBars
		dist string
	}{
		{"6", Fig6, "normal"},
		{"8", Fig8, "uniform[10,100]"},
		{"9", Fig9, "uniform[10,10000]"},
		{"10", Fig10, "poisson(mean=10)"},
		{"11", Fig11, "poisson(mean=100)"},
	} {
		t.Run("fig"+tc.name, func(t *testing.T) {
			res := tc.run(Fast())
			if !slices.Equal(res.Schedulers, pnsched.PaperOrder) || len(res.Makespan) != 7 {
				t.Fatalf("bars: %v / %v", res.Schedulers, res.Makespan)
			}
			for si, name := range res.Schedulers {
				if res.Makespan[si] <= 0 {
					t.Errorf("%s makespan = %v", name, res.Makespan[si])
				}
				if res.Efficiency[si] <= 0 || res.Efficiency[si] > 1 {
					t.Errorf("%s efficiency = %v", name, res.Efficiency[si])
				}
			}
			var sb strings.Builder
			RenderFigure(res, &sb)
			if !strings.Contains(sb.String(), tc.dist) {
				t.Errorf("output missing distribution name %q", tc.dist)
			}
		})
	}
}

func TestRenderDispatch(t *testing.T) {
	var out, csv strings.Builder
	fig, err := RunNamed("8", Fast())
	if err != nil {
		t.Fatal(err)
	}
	RenderFigure(fig, &out)
	if err := fig.Table().CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig 8") {
		t.Errorf("render output missing title:\n%s", out.String())
	}
	if !strings.Contains(csv.String(), "scheduler") {
		t.Errorf("csv missing header: %s", csv.String())
	}
	if _, err := RunNamed("99", Fast()); err == nil {
		t.Error("unknown figure rendered")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := Fast()
	a := Fig8(p)
	b := Fig8(p)
	for si := range a.Makespan {
		if a.Makespan[si] != b.Makespan[si] {
			t.Errorf("figure 8 not deterministic for %s: %v vs %v",
				a.Schedulers[si], a.Makespan[si], b.Makespan[si])
		}
	}
}
