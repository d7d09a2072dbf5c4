package scenario

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"pnsched"
)

// TestShippedScenarioRunsPinned runs every shipped scenario file end to
// end — Build, then pnsched.Run, as pnsim -scenario does — and pins
// the run's headline metrics bit-exactly. Between them the files cover
// availability models, reissue recovery, Poisson arrivals and PN-ISLAND
// with the dynamic batch rule, so a change to the simulator, the
// network model or the GA that moves any schedule shows up here.
func TestShippedScenarioRunsPinned(t *testing.T) {
	want := map[string]struct {
		makespan, efficiency             float64
		completed, reissued, invocations int
	}{
		"basic_pn.json":               {116.10783825702055, 0.7325667426319799, 200, 0, 2},
		"explicit_procs_failure.json": {93.92729434431001, 0.6855793662604924, 120, 9, 121},
		"heuristic_kpb.json":          {742.0778579136897, 0.22784071687326793, 250, 0, 0},
		"island.json":                 {362.9279810211184, 0.9579599239317252, 150, 0, 1},
		"comparison_pn.json":          {898.7677224904045, 0.44397185669983313, 1000, 0, 5},
		"island_dynamic_batch.json":   {174.86061982499564, 0.5942732773982814, 800, 0, 89},
		"turbulent_failure.json":      {2242.8580603009777, 0.611330241210795, 600, 59, 603},
	}
	files := scenarioFiles(t)
	if len(files) != len(want) {
		t.Errorf("%d shipped scenario files, %d pinned runs", len(files), len(want))
	}
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Load(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			sch, w, err := spec.Build(nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pnsched.Run(context.Background(), sch, w)
			if err != nil {
				t.Fatal(err)
			}
			w0, ok := want[name]
			if !ok {
				t.Fatalf("no pinned run for %s", name)
			}
			if float64(res.Makespan) != w0.makespan || res.Efficiency != w0.efficiency ||
				res.Completed != w0.completed || res.Reissued != w0.reissued || res.Invocations != w0.invocations {
				t.Errorf("run = {makespan %v, efficiency %v, completed %d, reissued %d, invocations %d}, pinned %+v",
					float64(res.Makespan), res.Efficiency, res.Completed, res.Reissued, res.Invocations, w0)
			}
		})
	}
}
