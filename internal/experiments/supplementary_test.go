package experiments

import (
	"strings"
	"testing"

	"pnsched"
)

func TestExtendedSchedulerSet(t *testing.T) {
	specs := ExtendedSchedulers(Fast(), true)
	if len(specs) != 11 {
		t.Fatalf("extended set has %d schedulers, want 11", len(specs))
	}
	for i, s := range specs {
		if s.Name != ExtendedOrder[i] {
			t.Errorf("scheduler %d = %s, want %s", i, s.Name, ExtendedOrder[i])
		}
		if pnsched.MustNew(s).Name() != s.Name {
			t.Errorf("instance/spec name mismatch for %s", s.Name)
		}
	}
}

func TestExtendedExperiment(t *testing.T) {
	res := Extended(Fast())
	if len(res.Schedulers) != 11 {
		t.Fatalf("schedulers = %v", res.Schedulers)
	}
	for si, name := range res.Schedulers {
		if res.Makespan[si] <= 0 {
			t.Errorf("%s makespan = %v", name, res.Makespan[si])
		}
	}
	var sb strings.Builder
	res.Table().Render(&sb)
	res.WritePlot(&sb)
	for _, want := range []string{"SUF", "KPB", "MET", "OLB"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("extended output missing %s", want)
		}
	}
}

func TestScalabilityShape(t *testing.T) {
	res := Scalability(Fast())
	if len(res.Procs) == 0 {
		t.Fatal("no processor counts")
	}
	if res.Procs[len(res.Procs)-1] != Fast().Procs {
		t.Errorf("sweep must reach the profile's %d processors: %v", Fast().Procs, res.Procs)
	}
	if len(res.Schedulers) != 3 {
		t.Fatalf("schedulers = %v", res.Schedulers)
	}
	// More processors must not increase makespan dramatically; for EF
	// the trend should be downward from the smallest to the largest
	// cluster.
	for si, name := range res.Schedulers {
		first := res.Makespan[si][0]
		last := res.Makespan[si][len(res.Procs)-1]
		if last >= first {
			t.Errorf("%s makespan did not shrink with more processors: %v → %v", name, first, last)
		}
	}
	var sb strings.Builder
	res.Table().Render(&sb)
	res.WritePlot(&sb)
	if !strings.Contains(sb.String(), "procs") {
		t.Error("scalability table missing header")
	}
}

func TestDynamicRegimes(t *testing.T) {
	res := Dynamic(Fast())
	if len(res.Scenarios) != 4 {
		t.Fatalf("scenarios = %v", res.Scenarios)
	}
	if len(res.Schedulers) != 4 {
		t.Fatalf("schedulers = %v", res.Schedulers)
	}
	for si, name := range res.Schedulers {
		for ci, scen := range res.Scenarios {
			if res.Makespan[si][ci] <= 0 {
				t.Errorf("%s/%s makespan = %v", name, scen, res.Makespan[si][ci])
			}
			if res.Completed[si][ci] <= 0 {
				t.Errorf("%s/%s completed = %v", name, scen, res.Completed[si][ci])
			}
		}
	}
	// The varying-resources regime must not be faster than static for
	// the same scheduler (resources are strictly reduced).
	for si, name := range res.Schedulers {
		static := res.Makespan[si][0]
		varying := res.Makespan[si][2]
		if varying < static*0.9 {
			t.Errorf("%s faster under reduced availability: %v vs %v", name, varying, static)
		}
	}
	var sb strings.Builder
	res.Table().Render(&sb)
	res.WritePlot(&sb)
	if !strings.Contains(sb.String(), "failure") {
		t.Error("dynamic table missing failure regime")
	}
}

func TestRunNamed(t *testing.T) {
	for _, name := range []string{"8", "extended", "scalability", "dynamic"} {
		fig, err := RunNamed(name, Fast())
		if err != nil {
			t.Fatalf("RunNamed(%s): %v", name, err)
		}
		if fig.Table() == nil {
			t.Errorf("RunNamed(%s) produced no table", name)
		}
	}
	if _, err := RunNamed("nonsense", Fast()); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := RunNamed("42", Fast()); err == nil {
		t.Error("unknown figure number accepted")
	}
}

func TestRenderNamedSupplementary(t *testing.T) {
	var out, csv strings.Builder
	fig, err := RunNamed("dynamic", Fast())
	if err != nil {
		t.Fatal(err)
	}
	RenderFigure(fig, &out)
	if err := fig.Table().CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Dynamic conditions") {
		t.Errorf("output:\n%s", out.String())
	}
	if csv.Len() == 0 {
		t.Error("no csv written")
	}
}
