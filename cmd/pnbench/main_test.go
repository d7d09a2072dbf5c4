package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"pnsched/internal/experiments"
	"pnsched/internal/metrics"
)

func TestResolveFiguresAll(t *testing.T) {
	names, err := resolveFigures("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(experiments.Figures) {
		t.Errorf("all resolved to %d names, want %d", len(names), len(experiments.Figures))
	}
}

func TestResolveFiguresEverythingIncludesIsland(t *testing.T) {
	names, err := resolveFigures("everything")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range experiments.Supplementary {
		if !slices.Contains(names, want) {
			t.Errorf("everything did not include the %s experiment: %v", want, names)
		}
	}
}

// TestDocumentedFiguresResolve holds every `pnbench -figure <name>`
// command in README.md and this command's package doc to a name
// resolveFigures accepts, so a deleted study cannot stay documented.
func TestDocumentedFiguresResolve(t *testing.T) {
	command := regexp.MustCompile(`pnbench\s+-figure[ =]([^\s` + "`" + `]+)`)
	seen := 0
	for _, doc := range []string{"../../README.md", "main.go"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range command.FindAllStringSubmatch(string(data), -1) {
			seen++
			if _, err := resolveFigures(m[1]); err != nil {
				t.Errorf("%s documents %q: %v", doc, m[0], err)
			}
		}
	}
	if seen == 0 {
		t.Error("found no pnbench -figure commands to check")
	}
}

func TestResolveFiguresRejectsUnknownUpFront(t *testing.T) {
	for _, bad := range []string{"12", "2", "3x", "islnd", "fig5", ""} {
		_, err := resolveFigures(bad)
		if err == nil {
			t.Errorf("%q accepted", bad)
			continue
		}
		// The error must teach the valid values.
		for _, want := range []string{"3", "11", "island", "everything"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%q error %q does not list %q", bad, err, want)
			}
		}
	}
}

func TestProfileByNameRejectsUnknown(t *testing.T) {
	for _, name := range []string{"fast", "default", "paper"} {
		if _, err := profileByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := profileByName("slow"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	report := jsonReport{
		GeneratedAt: "2026-01-01T00:00:00Z",
		Profile:     "fast",
		Seed:        2005,
		Results: []jsonFigure{{
			Name:      "island",
			Title:     "Island model",
			Header:    []string{"islands", "makespan[s]", "wall[ms]", "speedup", "evals"},
			Rows:      [][]string{{"1 (seq)", "13.0", "90", "1", "16000"}},
			ElapsedMS: 123,
		}},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeJSON(path, report); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back jsonReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written file is not valid JSON: %v", err)
	}
	if back.Results[0].Name != "island" || back.Results[0].Rows[0][0] != "1 (seq)" {
		t.Errorf("round-trip mangled the report: %+v", back)
	}
}

// csvFigure is a Figure holding a fixed table.
type csvFigure struct{ tbl metrics.Table }

func (f *csvFigure) Table() *metrics.Table { return &f.tbl }
func (f *csvFigure) WritePlot(io.Writer)   {}

func TestWriteCSV(t *testing.T) {
	fig := &csvFigure{metrics.Table{Header: []string{"variant", "makespan"}, Rows: [][]string{{"CX", "130.9"}}}}
	path := filepath.Join(t.TempDir(), "ablation.csv")
	if err := writeCSV(path, fig); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "variant,makespan\nCX,130.9\n" {
		t.Errorf("wrote %q (%v)", data, err)
	}
	// A full disk must fail the run, not leave a truncated CSV behind
	// with exit status 0.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to simulate a full disk")
	}
	if err := writeCSV("/dev/full", fig); err == nil {
		t.Error("writing to a full device reported success")
	}
}
