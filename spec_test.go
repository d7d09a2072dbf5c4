package pnsched

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestNewSpecOptions(t *testing.T) {
	spec, err := NewSpec("pn-island",
		WithGenerations(500),
		WithPopulation(30),
		WithRebalances(2),
		WithBatch(100),
		WithDynamicBatch(true),
		WithIslands(4),
		WithMigrationInterval(10),
		WithMigrants(3),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Generations != 500 || spec.Population != 30 || spec.Rebalances != 2 ||
		spec.Batch != 100 || !spec.DynamicBatch || spec.Seed != 7 {
		t.Errorf("options not applied: %+v", spec)
	}
	if spec.Islands == nil || *spec.Islands != 4 || spec.MigrationInterval != 10 || spec.Migrants != 3 {
		t.Errorf("island options not applied: %+v", spec)
	}
	cfg := spec.gaConfig()
	if cfg.Generations != 500 || cfg.Population != 30 || cfg.Rebalances != 2 ||
		cfg.InitialBatch != 100 || cfg.FixedBatch {
		t.Errorf("gaConfig lowering wrong: %+v", cfg)
	}
	icfg := spec.islandConfig()
	if icfg.Islands != 4 || icfg.MigrationInterval != 10 || icfg.Migrants != 3 {
		t.Errorf("islandConfig lowering wrong: %+v", icfg)
	}
}

func TestSpecDefaultsLowering(t *testing.T) {
	// Zero sizes stay zero, so core.NewPN applies the paper's defaults
	// (core's TestConfigDefaultsApplied pins those).
	cfg := Spec{Name: "PN"}.gaConfig()
	if cfg.Generations != 0 || cfg.Population != 0 || cfg.Rebalances != 1 ||
		cfg.InitialBatch != 0 || !cfg.FixedBatch {
		t.Errorf("zero Spec must lower onto paper defaults: %+v", cfg)
	}
	// Negative rebalances is the pure-GA ablation.
	if cfg := (Spec{Name: "PN", Rebalances: -1}).gaConfig(); cfg.Rebalances != 0 {
		t.Errorf("negative rebalances lowered to %d, want 0", cfg.Rebalances)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := map[string]struct {
		spec Spec
		want string // error substring; empty = valid
	}{
		"valid PN":             {Spec{Name: "PN", Generations: 50}, ""},
		"valid island":         {MustSpec("PN-ISLAND", WithIslands(2)), ""},
		"empty name":           {Spec{}, "name required"},
		"unknown":              {Spec{Name: "WAT"}, "unknown scheduler"},
		"neg generations":      {Spec{Name: "PN", Generations: -1}, "negative generations"},
		"neg population":       {Spec{Name: "PN", Population: -1}, "negative population"},
		"neg batch":            {Spec{Name: "PN", Batch: -1}, "negative batch"},
		"zero islands":         {Spec{Name: "pn-island", Islands: intp(0)}, "islands >= 1"},
		"neg interval":         {Spec{Name: "pn-island", MigrationInterval: -1}, "migration_interval"},
		"migrants >= pop":      {Spec{Name: "pn-island", Population: 10, Migrants: 10}, "smaller than the population"},
		"island fields on PN":  {Spec{Name: "PN", Islands: intp(2)}, "only apply"},
		"migrants on EF":       {Spec{Name: "EF", Migrants: 2}, "only apply"},
		"interval on MM":       {Spec{Name: "MM", MigrationInterval: 5}, "only apply"},
		"case-insensitive":     {Spec{Name: "Pn-IsLaNd", MigrationInterval: 5}, ""},
		"migrants default pop": {Spec{Name: "pn-island", Migrants: 20}, "smaller than the population"},
		"valid KPB":            {Spec{Name: "KPB", K: 30}, ""},
		"KPB k 100":            {Spec{Name: "kpb", K: 100}, ""},
		"k on PN":              {Spec{Name: "PN", K: 40}, "only applies"},
		"k on MM":              {Spec{Name: "MM", K: 20}, "only applies"},
		"neg k":                {Spec{Name: "KPB", K: -5}, "within 0..100"},
		"k over 100":           {Spec{Name: "KPB", K: 500}, "within 0..100"},
	}
	for name, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

func intp(n int) *int { return &n }

// TestSpecJSONRoundTrip: a Spec marshals to JSON and back unchanged —
// the property that lets one value back scenario files, flags and
// library calls.
func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		{Name: "PN"},
		{Name: "EF"},
		MustSpec("PN", WithGenerations(500), WithBatch(100), WithDynamicBatch(true), WithSeed(9)),
		MustSpec("pn-island", WithIslands(4), WithMigrationInterval(10), WithMigrants(3), WithPopulation(30)),
		{Name: "KPB", K: 40},
		MustSpec("ZO", WithRebalances(-1)),
	}
	for _, spec := range specs {
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", spec.Name, err)
		}
		var again Spec
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&again); err != nil {
			t.Fatalf("%s: unmarshal %s: %v", spec.Name, raw, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Errorf("%s: round-trip changed the spec:\n%+v\n%+v\n%s", spec.Name, spec, again, raw)
		}
	}
}

// TestSpecJSONOmitsDefaults: the zero fields stay out of the wire
// form, so minimal scenario files stay minimal when re-marshalled.
func TestSpecJSONOmitsDefaults(t *testing.T) {
	raw, err := json.Marshal(Spec{Name: "PN"})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"name":"PN"}` {
		t.Errorf("zero spec marshals to %s", raw)
	}
}
