package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"pnsched/internal/metrics"
)

// Figure is the common interface of every regenerated figure result.
type Figure interface {
	Table() *metrics.Table
	WritePlot(w io.Writer)
}

// experiment is one regenerable experiment under its -figure name.
type experiment struct {
	name string
	run  func(Profile) Figure
}

// entry files a study under name, adapting its concrete result type to
// Figure.
func entry[F Figure](name string, run func(Profile) F) experiment {
	return experiment{name, func(p Profile) Figure { return run(p) }}
}

// table is every experiment in presentation order: the paper's figures
// by number, then the supplementary experiments by name. Figures,
// Supplementary, Known and RunNamed all read it.
var table = []experiment{
	entry("3", Fig3),
	entry("4", Fig4),
	entry("5", Fig5),
	entry("6", Fig6),
	entry("7", Fig7),
	entry("8", Fig8),
	entry("9", Fig9),
	entry("10", Fig10),
	entry("11", Fig11),
	entry("extended", Extended),
	entry("scalability", Scalability),
	entry("dynamic", Dynamic),
	entry("island", Island),
	entry("ablation", Ablation),
}

// Figures lists the paper figure numbers the harness can regenerate,
// and Supplementary the extra experiments beyond the paper's figures.
var Figures, Supplementary = func() (figs []int, supp []string) {
	for _, e := range table {
		if n, err := strconv.Atoi(e.name); err == nil {
			figs = append(figs, n)
		} else {
			supp = append(supp, e.name)
		}
	}
	return figs, supp
}()

func lookup(name string) (experiment, bool) {
	for _, e := range table {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// Known reports whether name is a regenerable experiment — a paper
// figure number or a supplementary experiment name — so front ends can
// validate a whole request before starting any long run.
func Known(name string) bool {
	_, ok := lookup(name)
	return ok
}

// RunNamed regenerates a paper figure ("3".."11") or a supplementary
// experiment by name.
func RunNamed(name string, p Profile) (Figure, error) {
	e, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (figures %v or %v)", name, Figures, Supplementary)
	}
	return e.run(p), nil
}

// RenderFigure writes an already-computed figure's table and plot to
// w.
func RenderFigure(fig Figure, w io.Writer) {
	fig.Table().Render(w)
	fmt.Fprintln(w)
	fig.WritePlot(w)
}

// writeBars draws one horizontal bar per label, labels padded to the
// longest and the largest value spanning width.
func writeBars(w io.Writer, title string, labels []string, vals []float64, width int) {
	fmt.Fprintln(w, title)
	maxVal, pad := 0.0, 0
	for i, v := range vals {
		maxVal = max(maxVal, v)
		pad = max(pad, len(labels[i]))
	}
	if maxVal <= 0 {
		return
	}
	for i, label := range labels {
		fmt.Fprintf(w, "  %-*s %8.1f |%s\n", pad, label, vals[i], strings.Repeat("#", int(vals[i]/maxVal*float64(width))))
	}
}
