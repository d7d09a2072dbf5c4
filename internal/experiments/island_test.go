package experiments

import (
	"strings"
	"testing"
)

func TestIslandStudyShape(t *testing.T) {
	p := Fast()
	p.Repeats = 1
	res := Island(p)
	if len(res.Islands) == 0 || res.Islands[0] != 1 {
		t.Fatalf("island counts = %v, want sequential first", res.Islands)
	}
	for vi, n := range res.Islands {
		if res.Makespan[vi] <= 0 {
			t.Errorf("%d islands: makespan = %v", n, res.Makespan[vi])
		}
		if res.Evals[vi] <= 0 {
			t.Errorf("%d islands: evals = %v", n, res.Evals[vi])
		}
	}
	if res.Speedup[0] != 1 {
		t.Errorf("sequential speedup = %v, want 1", res.Speedup[0])
	}
	// Equal total generation budget: the variants' best makespans must
	// land in the same ballpark — a split that cost 3× quality would
	// mean the migration topology is broken.
	for vi, n := range res.Islands[1:] {
		if res.Makespan[vi+1] > 3*res.Makespan[0] {
			t.Errorf("%d islands makespan %v vs sequential %v — split destroyed quality",
				n, res.Makespan[vi+1], res.Makespan[0])
		}
	}
	var sb strings.Builder
	res.Table().Render(&sb)
	res.WritePlot(&sb)
	for _, want := range []string{"islands", "speedup", "1 (seq)"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("island output missing %q", want)
		}
	}
}

// TestIslandStudyDeterministicMakespans: wall-clock varies run to run,
// but the schedules (and so the makespans) are seed-deterministic.
func TestIslandStudyDeterministicMakespans(t *testing.T) {
	p := Fast()
	p.Repeats = 1
	a, b := Island(p), Island(p)
	for vi := range a.Islands {
		if a.Makespan[vi] != b.Makespan[vi] || a.Evals[vi] != b.Evals[vi] {
			t.Errorf("%d islands: results diverged across runs (%v/%v vs %v/%v)",
				a.Islands[vi], a.Makespan[vi], a.Evals[vi], b.Makespan[vi], b.Evals[vi])
		}
	}
}

func TestKnownNames(t *testing.T) {
	for _, name := range []string{"3", "11", "extended", "island", "ablation"} {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	for _, name := range []string{"2", "12", "islnd", "", "all"} {
		if Known(name) {
			t.Errorf("Known(%q) = true", name)
		}
	}
}
