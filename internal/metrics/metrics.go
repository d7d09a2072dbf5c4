// Package metrics aggregates simulation results across experiment
// repeats and renders them as aligned text tables, CSV, and ASCII plots
// — the output layer behind every figure regeneration in the harness.
//
// This is the *experiment output* layer, not runtime telemetry: it
// summarises what a finished study measured. Live operational metrics
// — the counters, gauges and histograms a running server exposes at
// /metrics in Prometheus format — live in internal/telemetry.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"pnsched/internal/sim"
	"pnsched/internal/stats"
	"pnsched/internal/units"
)

// Agg summarises a set of repeats.
type Agg struct {
	N          int
	Makespan   stats.Summary
	Efficiency stats.Summary
	Completed  int // total tasks completed across repeats
}

// Aggregate summarises simulation repeats; an empty input yields a
// zero Agg.
func Aggregate(runs []sim.Result) Agg {
	if len(runs) == 0 {
		return Agg{}
	}
	mk := make([]float64, len(runs))
	eff := make([]float64, len(runs))
	total := 0
	for i, r := range runs {
		mk[i] = float64(r.Makespan)
		eff[i] = r.Efficiency
		total += r.Completed
	}
	mks, _ := stats.Summarize(mk)
	effs, _ := stats.Summarize(eff)
	return Agg{N: len(runs), Makespan: mks, Efficiency: effs, Completed: total}
}

// Table is a simple column-aligned text table with CSV export.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case units.Seconds:
			row[i] = fmt.Sprintf("%.2f", float64(x))
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// CSV writes the table as comma-separated values and returns the first
// write error. A cell is quoted only when it holds a comma, a quote or
// a line break, so numeric tables come out unquoted.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is one named line of an ASCII plot.
type Series struct {
	Name string
	X, Y []float64
}

// Plot renders series as an ASCII scatter plot of the given dimensions.
// Each series is drawn with its own rune (a, b, c, … in order); axes are
// annotated with the data ranges. It is intentionally simple — the CSV
// export is the precise record; the plot is for eyeballing shape.
func Plot(w io.Writer, title string, series []Series, width, height int) {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	// Global ranges.
	xmin, xmax, ymin, ymax := rangeOf(series)
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	marks := "abcdefghijklmnopqrstuvwxyz"
	for si, s := range series {
		mark := rune(marks[si%len(marks)])
		for i := range s.X {
			col := scale(s.X[i], xmin, xmax, width-1)
			row := height - 1 - scale(s.Y[i], ymin, ymax, height-1)
			grid[row][col] = mark
		}
	}
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  y: %.4g .. %.4g\n", ymin, ymax)
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s\n", string(row))
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "  x: %.4g .. %.4g\n", xmin, xmax)
	for si, s := range series {
		fmt.Fprintf(w, "  %c = %s\n", marks[si%len(marks)], s.Name)
	}
}

func rangeOf(series []Series) (xmin, xmax, ymin, ymax float64) {
	first := true
	for _, s := range series {
		for i := range s.X {
			if first {
				xmin, xmax, ymin, ymax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			if s.X[i] < xmin {
				xmin = s.X[i]
			}
			if s.X[i] > xmax {
				xmax = s.X[i]
			}
			if s.Y[i] < ymin {
				ymin = s.Y[i]
			}
			if s.Y[i] > ymax {
				ymax = s.Y[i]
			}
		}
	}
	return
}

func scale(v, lo, hi float64, max int) int {
	if hi <= lo {
		return 0
	}
	i := int((v - lo) / (hi - lo) * float64(max))
	if i < 0 {
		i = 0
	}
	if i > max {
		i = max
	}
	return i
}
