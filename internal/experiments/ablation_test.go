package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestAblationFastShape(t *testing.T) {
	p := Fast()
	res := Ablation(p)
	tbl := res.Table()
	var labels []string
	for _, row := range tbl.Rows {
		labels = append(labels, row[0])
	}
	want := []string{"CX, list init", "CX, random init", "PMX, list init", "OX, list init", "PN dynamic", "PN fixed", "ZO fixed"}
	if !slices.Equal(labels, want) {
		t.Fatalf("rows = %q, want %q", labels, want)
	}
	for vi, name := range res.Variants {
		if res.Makespan[vi] <= 0 || res.CI[vi] < 0 || res.Genes[vi] <= 0 {
			t.Errorf("%s: makespan %v, ci %v, genes %v", name, res.Makespan[vi], res.CI[vi], res.Genes[vi])
		}
	}
	for si, name := range res.Sim.Schedulers {
		if res.Sim.Makespan[si] <= 0 || res.Sim.CI[si] < 0 {
			t.Errorf("%s: makespan %v, ci %v", name, res.Sim.Makespan[si], res.Sim.CI[si])
		}
		if res.Sim.Completed[si] != float64(p.Tasks) {
			t.Errorf("%s completed %v of %d tasks", name, res.Sim.Completed[si], p.Tasks)
		}
	}
	var sb strings.Builder
	RenderFigure(res, &sb)
	for _, want := range []string{"Ablation", "genes", "simulated makespan"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}
