package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// scenarioFiles returns every scenario JSON file shipped with the
// repo: this package's testdata plus the user-facing files under
// examples/scenarios.
func scenarioFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, dir := range []string{"testdata", filepath.Join("..", "..", "examples", "scenarios")} {
		matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) == 0 {
			t.Fatalf("no scenario files under %s — the golden corpus is gone", dir)
		}
		files = append(files, matches...)
	}
	return files
}

// TestScenarioFilesRoundTrip is the golden guarantee of the public
// Spec's JSON form: every shipped scenario file loads, re-marshals,
// and reloads to an identical Spec — so the pnsched.Spec refactor (or
// any future field addition) cannot silently change what a scenario
// file means.
func TestScenarioFilesRoundTrip(t *testing.T) {
	for _, path := range scenarioFiles(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spec, err := Load(f)
			if err != nil {
				t.Fatalf("load: %v", err)
			}

			out, err := json.Marshal(spec)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			again, err := Load(bytes.NewReader(out))
			if err != nil {
				t.Fatalf("re-load of marshalled spec: %v\n%s", err, out)
			}
			if !reflect.DeepEqual(spec, again) {
				t.Errorf("spec did not round-trip:\n first: %+v\nsecond: %+v\n  wire: %s", spec, again, out)
			}

			// The file's own JSON and the re-marshalled Spec must be
			// semantically identical documents — nothing dropped,
			// renamed, defaulted-in or reinterpreted.
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var fromFile, fromSpec any
			if err := json.Unmarshal(raw, &fromFile); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(out, &fromSpec); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromFile, fromSpec) {
				t.Errorf("re-marshalled scenario diverged from the file:\n file: %v\n spec: %v", fromFile, fromSpec)
			}
		})
	}
}

// TestScenarioFilesBuild: every shipped scenario file materialises
// into a runnable spec and workload (workload-file references aside,
// which none of the corpus uses).
func TestScenarioFilesBuild(t *testing.T) {
	for _, path := range scenarioFiles(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spec, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			sch, w, err := spec.Build(nil)
			if err != nil {
				t.Fatal(err)
			}
			if sch.Name == "" || w.Cluster.M() == 0 || len(w.Tasks) == 0 {
				t.Errorf("built scenario incomplete: %+v, %+v", sch, w)
			}
		})
	}
}
