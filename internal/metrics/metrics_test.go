package metrics

import (
	"strings"
	"testing"

	"pnsched/internal/sim"
	"pnsched/internal/units"
)

func TestAggregate(t *testing.T) {
	runs := []sim.Result{
		{Makespan: 100, Efficiency: 0.4, Completed: 10},
		{Makespan: 200, Efficiency: 0.6, Completed: 10},
	}
	agg := Aggregate(runs)
	if agg.N != 2 {
		t.Errorf("N = %d", agg.N)
	}
	if agg.Makespan.Mean != 150 {
		t.Errorf("makespan mean = %v", agg.Makespan.Mean)
	}
	if agg.Efficiency.Mean != 0.5 {
		t.Errorf("efficiency mean = %v", agg.Efficiency.Mean)
	}
	if agg.Completed != 20 {
		t.Errorf("completed = %d", agg.Completed)
	}
}

func TestAggregateEmpty(t *testing.T) {
	agg := Aggregate(nil)
	if agg.N != 0 || agg.Makespan.Mean != 0 {
		t.Errorf("empty aggregate = %+v", agg)
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Header: []string{"sched", "makespan"},
	}
	tbl.AddRow("PN", units.Seconds(12.345))
	tbl.AddRow("RR", 99.9)
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "sched", "makespan", "PN", "12.35", "RR", "99.9"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// Columns aligned: every data line has the same prefix width for
	// the first column.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := Table{Header: []string{"a", "b"}}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("CX, list init", "-")
	var sb strings.Builder
	if err := tbl.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if got != "a,b\n1,2.5\n\"CX, list init\",-\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestPlot(t *testing.T) {
	series := []Series{
		{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
		{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
	}
	var sb strings.Builder
	Plot(&sb, "trend", series, 20, 6)
	out := sb.String()
	for _, want := range []string{"trend", "a = up", "b = down", "x: 0 .. 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Error("plot missing series markers")
	}
}

func TestPlotDegenerate(t *testing.T) {
	// Single point and tiny dimensions must not panic.
	var sb strings.Builder
	Plot(&sb, "pt", []Series{{Name: "one", X: []float64{5}, Y: []float64{5}}}, 1, 1)
	if sb.Len() == 0 {
		t.Error("no output")
	}
	Plot(&sb, "empty", nil, 30, 8)
}

func TestScale(t *testing.T) {
	if got := scale(5, 0, 10, 10); got != 5 {
		t.Errorf("scale mid = %d", got)
	}
	if got := scale(-1, 0, 10, 10); got != 0 {
		t.Errorf("scale clamps low: %d", got)
	}
	if got := scale(11, 0, 10, 10); got != 10 {
		t.Errorf("scale clamps high: %d", got)
	}
	if got := scale(5, 10, 10, 10); got != 0 {
		t.Errorf("degenerate range: %d", got)
	}
}
