package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"pnsched"
	"pnsched/internal/core"
	"pnsched/internal/rng"
	"pnsched/internal/workload"
)

// run builds the scenario and runs it through pnsched.Run.
func run(t *testing.T, spec *Spec) pnsched.Result {
	t.Helper()
	sch, w, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pnsched.Run(context.Background(), sch, w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const validScenario = `{
  "seed": 7,
  "cluster": {"count": 4, "rate_lo": 20, "rate_hi": 200},
  "network": {"mean_cost_s": 1, "link_spread": 0.3, "jitter": 0.2},
  "workload": {"n": 100, "dist": "uniform", "lo": 10, "hi": 1000},
  "scheduler": {"name": "PN", "generations": 50}
}`

func TestLoadAndRun(t *testing.T) {
	spec, err := Load(strings.NewReader(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, spec)
	if res.Completed != 100 {
		t.Errorf("completed = %d", res.Completed)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1 {
		t.Errorf("efficiency = %v", res.Efficiency)
	}
}

func TestLoadDeterministic(t *testing.T) {
	load := func() *Spec {
		spec, err := Load(strings.NewReader(validScenario))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	a, b := run(t, load()), run(t, load())
	if a.Makespan != b.Makespan {
		t.Errorf("scenario runs diverged: %v vs %v", a.Makespan, b.Makespan)
	}
}

func TestExplicitProcsWithAvailability(t *testing.T) {
	in := `{
	  "seed": 1,
	  "cluster": {"procs": [
	    {"rate": 100},
	    {"rate": 50, "avail": {"model": "off-after", "cutoff_s": 30}},
	    {"rate": 80, "avail": {"model": "sinusoidal", "mean": 0.7, "amplitude": 0.2, "period_s": 60}},
	    {"rate": 60, "avail": {"model": "random-walk", "interval_s": 10, "step": 0.2, "floor": 0.3, "start": 0.9}},
	    {"rate": 40, "avail": {"model": "markov", "mean_on_s": 30, "mean_off_s": 10, "on_level": 1, "off_level": 0.2}}
	  ]},
	  "network": {"mean_cost_s": 0.5},
	  "workload": {"n": 60, "dist": "poisson", "mean": 100},
	  "scheduler": {"name": "EF"},
	  "reissue_timeout_s": 20
	}`
	spec, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	_, w, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cluster.M() != 5 {
		t.Fatalf("M = %d", w.Cluster.M())
	}
	if w.Cluster.Procs[1].Avail.Name() != "off-after(30.000s)" {
		t.Errorf("proc 1 avail = %s", w.Cluster.Procs[1].Avail.Name())
	}
	if res := run(t, spec); res.Completed != 60 {
		t.Errorf("completed = %d with failure recovery enabled", res.Completed)
	}
}

func TestAllSchedulersBuildable(t *testing.T) {
	for _, name := range []string{"EF", "LL", "RR", "MM", "MX", "MET", "OLB", "KPB", "SUF", "PN", "ZO"} {
		in := strings.Replace(validScenario, `"name": "PN", "generations": 50`, `"name": "`+name+`", "generations": 30`, 1)
		spec, err := Load(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res := run(t, spec); res.Completed != 100 {
			t.Errorf("%s completed %d of 100", name, res.Completed)
		}
	}
}

func TestWorkloadFileReference(t *testing.T) {
	tasks := workload.Generate(workload.Spec{
		N:     25,
		Sizes: workload.Constant{Size: 100},
	}, rng.New(1))
	var buf bytes.Buffer
	if err := workload.WriteJSON(&buf, tasks, "test"); err != nil {
		t.Fatal(err)
	}
	in := `{
	  "seed": 1,
	  "cluster": {"count": 2, "rate_lo": 50, "rate_hi": 100},
	  "network": {"mean_cost_s": 0},
	  "workload": {"n": 0, "dist": "", "file": "tasks.json"},
	  "scheduler": {"name": "EF"}
	}`
	spec, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	_, w, err := spec.Build(func(name string) (io.ReadCloser, error) {
		if name != "tasks.json" {
			t.Fatalf("unexpected file %q", name)
		}
		return io.NopCloser(bytes.NewReader(buf.Bytes())), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Tasks) != 25 {
		t.Errorf("loaded %d tasks", len(w.Tasks))
	}
	// File references must be refused without an opener.
	if _, _, err := spec.Build(nil); err == nil {
		t.Error("file reference accepted without opener")
	}
}

func TestLoadRejectsBadSpecs(t *testing.T) {
	cases := map[string]string{
		"garbage":        `{`,
		"unknown field":  `{"seed": 1, "bogus": true}`,
		"no cluster":     `{"seed":1,"cluster":{},"network":{"mean_cost_s":0},"workload":{"n":1,"dist":"constant"},"scheduler":{"name":"EF"}}`,
		"bad rates":      `{"seed":1,"cluster":{"count":3,"rate_lo":0,"rate_hi":5},"network":{"mean_cost_s":0},"workload":{"n":1,"dist":"constant"},"scheduler":{"name":"EF"}}`,
		"zero-rate proc": `{"seed":1,"cluster":{"procs":[{"rate":0}]},"network":{"mean_cost_s":0},"workload":{"n":1,"dist":"constant"},"scheduler":{"name":"EF"}}`,
		"no workload":    `{"seed":1,"cluster":{"count":1,"rate_lo":1,"rate_hi":2},"network":{"mean_cost_s":0},"workload":{"dist":"constant"},"scheduler":{"name":"EF"}}`,
		"neg comm":       `{"seed":1,"cluster":{"count":1,"rate_lo":1,"rate_hi":2},"network":{"mean_cost_s":-1},"workload":{"n":1,"dist":"constant"},"scheduler":{"name":"EF"}}`,
		"no scheduler":   `{"seed":1,"cluster":{"count":1,"rate_lo":1,"rate_hi":2},"network":{"mean_cost_s":0},"workload":{"n":1,"dist":"constant"},"scheduler":{}}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestBuildRejectsUnknowns(t *testing.T) {
	spec, err := Load(strings.NewReader(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	spec.Scheduler.Name = "WAT"
	if _, _, err := spec.Build(nil); err == nil {
		t.Error("unknown scheduler accepted")
	}
	spec, _ = Load(strings.NewReader(validScenario))
	spec.Workload.Dist = "cauchy"
	if _, _, err := spec.Build(nil); err == nil {
		t.Error("unknown distribution accepted")
	}
	spec, _ = Load(strings.NewReader(validScenario))
	spec.Cluster.Procs = []ProcSpec{{Rate: 10, Avail: &AvailSpec{Model: "quantum"}}}
	spec.Cluster.Count = 0
	if _, _, err := spec.Build(nil); err == nil {
		t.Error("unknown availability model accepted")
	}
}

// islandScenario is a complete pn-island scenario with every island
// field set.
const islandScenario = `{
  "seed": 7,
  "cluster": {"count": 4, "rate_lo": 20, "rate_hi": 200},
  "network": {"mean_cost_s": 1, "link_spread": 0.3, "jitter": 0.2},
  "workload": {"n": 100, "dist": "uniform", "lo": 10, "hi": 1000},
  "scheduler": {"name": "pn-island", "generations": 40, "population": 10,
                "islands": 2, "migration_interval": 5, "migrants": 1}
}`

// TestPNIslandSpecRoundTrip: the island fields survive
// parse → marshal → parse unchanged, and the spec builds and runs.
func TestPNIslandSpecRoundTrip(t *testing.T) {
	spec, err := Load(strings.NewReader(islandScenario))
	if err != nil {
		t.Fatal(err)
	}
	sch := spec.Scheduler
	if sch.Islands == nil || *sch.Islands != 2 || sch.MigrationInterval != 5 || sch.Migrants != 1 {
		t.Fatalf("island fields not parsed: %+v", sch)
	}
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Load(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("re-parse of marshalled spec failed: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Errorf("spec did not round-trip:\n%+v\n%+v", spec, again)
	}

	built, _, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if name := pnsched.MustNew(built).Name(); name != "PNI" {
		t.Errorf("built scheduler %q, want PNI", name)
	}
	if res := run(t, spec); res.Completed != 100 {
		t.Errorf("pn-island completed %d of 100", res.Completed)
	}
}

// TestPNIslandSpecDefaults: omitting the island fields is valid and
// defaults to one island per CPU.
func TestPNIslandSpecDefaults(t *testing.T) {
	in := strings.Replace(validScenario, `"name": "PN"`, `"name": "pn-island"`, 1)
	spec, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	sch, _, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	built := pnsched.MustNew(sch)
	pni, ok := built.(*core.PN)
	if !ok || pni.Name() != "PNI" {
		t.Fatalf("built %T %q, want the island configuration of *core.PN", built, built.Name())
	}
	if sch.Islands != nil {
		t.Errorf("islands = %d, want unset (defaulted to NumCPU at run time)", *sch.Islands)
	}
}

// TestPNIslandSpecRejectsBadValues: islands < 1 and migrants >=
// population produce clear errors at load time, and island fields on a
// non-island scheduler are refused.
func TestPNIslandSpecRejectsBadValues(t *testing.T) {
	base := `{"seed":1,"cluster":{"count":2,"rate_lo":10,"rate_hi":20},"network":{"mean_cost_s":0},"workload":{"n":10,"dist":"constant","mean":100},"scheduler":%s}`
	cases := map[string]struct {
		scheduler string
		want      string
	}{
		"zero islands":                    {`{"name":"pn-island","islands":0}`, "islands >= 1"},
		"negative islands":                {`{"name":"pn-island","islands":-3}`, "islands >= 1"},
		"migrants >= default population":  {`{"name":"pn-island","migrants":20}`, "smaller than the population"},
		"migrants >= explicit population": {`{"name":"pn-island","population":10,"migrants":10}`, "smaller than the population"},
		"negative interval":               {`{"name":"pn-island","migration_interval":-1}`, "migration_interval"},
		"island fields on PN":             {`{"name":"PN","islands":4}`, "only apply"},
		"migrants on EF":                  {`{"name":"EF","migrants":2}`, "only apply"},
	}
	for name, tc := range cases {
		_, err := Load(strings.NewReader(fmt.Sprintf(base, tc.scheduler)))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}
