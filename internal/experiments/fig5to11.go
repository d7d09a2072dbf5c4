package experiments

import (
	"fmt"
	"io"

	"pnsched"
	"pnsched/internal/metrics"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

// sweepXs are the x-axis points of the efficiency sweeps: 1/mean
// communication cost from 0.01 to 0.1 (the paper's horizontal range).
func sweepXs() []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = 0.01 * float64(i+1)
	}
	return xs
}

// EfficiencySweep holds Figs. 5 and 7: scheduler efficiency as the mean
// communication cost varies, for all seven schedulers.
type EfficiencySweep struct {
	Figure     int
	Profile    string
	Dist       string
	Repeats    int
	X          []float64 // 1 / mean communication cost
	Schedulers []string
	Eff        [][]float64 // Eff[scheduler][x]: mean efficiency
	CI         [][]float64 // 95% confidence half-widths
}

// Fig5 regenerates the paper's Fig. 5: efficiency with normally
// distributed task sizes (mean 1000 MFLOPs, variance 9×10⁵) under
// varying communication costs.
func Fig5(p Profile) *EfficiencySweep {
	return efficiencySweep(p, 5, workload.Normal{Mean: 1000, Variance: 9e5})
}

// Fig7 regenerates the paper's Fig. 7: efficiency with uniformly
// distributed task sizes (10–1000 MFLOPs) under varying communication
// costs.
func Fig7(p Profile) *EfficiencySweep {
	return efficiencySweep(p, 7, workload.Uniform{Lo: 10, Hi: 1000})
}

func efficiencySweep(p Profile, figure int, dist workload.SizeDistribution) *EfficiencySweep {
	xs := sweepXs()
	specs := Schedulers(p, true) // §4.3: fixed batch of 200 for the sweeps
	points := make([]point, len(xs))
	for xi, x := range xs {
		points[xi] = point{wl: p.workload(p.SweepTasks, dist, units.Seconds(1/x)), id: figure*100 + xi}
	}
	aggs := p.sweep(specs, points)
	return &EfficiencySweep{
		Figure:     figure,
		Profile:    p.Name,
		Dist:       dist.Name(),
		Repeats:    p.Repeats,
		X:          xs,
		Schedulers: specNames(specs),
		Eff:        each(aggs, meanEfficiency),
		CI:         each(aggs, func(a metrics.Agg) float64 { return 1.96 * a.Efficiency.StdErr }),
	}
}

// Table renders one row per x value with a column per scheduler.
func (r *EfficiencySweep) Table() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Fig %d: efficiency vs 1/mean comm cost, %s, %d repeats (%s profile)",
			r.Figure, r.Dist, r.Repeats, r.Profile),
		Header: append([]string{"1/meanComm"}, r.Schedulers...),
	}
	for xi, x := range r.X {
		row := make([]any, 0, len(r.Schedulers)+1)
		row = append(row, x)
		for si := range r.Schedulers {
			row = append(row, r.Eff[si][xi])
		}
		t.AddRow(row...)
	}
	return t
}

// WritePlot draws all scheduler efficiency curves.
func (r *EfficiencySweep) WritePlot(w io.Writer) {
	series := make([]metrics.Series, len(r.Schedulers))
	for si, name := range r.Schedulers {
		series[si] = metrics.Series{Name: name, X: r.X, Y: r.Eff[si]}
	}
	metrics.Plot(w, fmt.Sprintf("Fig %d: efficiency vs 1/mean comm cost (%s)", r.Figure, r.Dist),
		series, 72, 16)
}

// MakespanBars holds the bar-chart figures (6, 8, 9, 10, 11): mean
// makespan per scheduler for one task-size distribution.
type MakespanBars struct {
	Figure     int
	Profile    string
	Dist       string
	Tasks      int
	Repeats    int
	Schedulers []string
	Makespan   []float64
	CI         []float64
	Efficiency []float64
	Completed  []float64 // mean completed tasks per run
}

// Fig6 regenerates the paper's Fig. 6: makespan with task sizes
// normal(1000 MFLOPs, 9×10⁵), with PN's dynamic batch sizing active
// ("the makespan for the algorithm, with a varying batch size").
func Fig6(p Profile) *MakespanBars {
	return makespanBars(p, 6, 6, Schedulers(p, false), workload.Normal{Mean: 1000, Variance: 9e5})
}

// Fig8 regenerates Fig. 8: uniform task sizes 10–100 MFLOPs (a 1:10
// ratio under which the schedulers converge).
func Fig8(p Profile) *MakespanBars {
	return makespanBars(p, 8, 8, Schedulers(p, true), workload.Uniform{Lo: 10, Hi: 100})
}

// Fig9 regenerates Fig. 9: uniform task sizes 10–10000 MFLOPs (1:1000,
// accentuating the differences).
func Fig9(p Profile) *MakespanBars {
	return makespanBars(p, 9, 9, Schedulers(p, true), workload.Uniform{Lo: 10, Hi: 10000})
}

// Fig10 regenerates Fig. 10: Poisson task sizes with mean 10 MFLOPs.
func Fig10(p Profile) *MakespanBars {
	return makespanBars(p, 10, 10, Schedulers(p, true), workload.Poisson{Mean: 10})
}

// Fig11 regenerates Fig. 11: Poisson task sizes with mean 100 MFLOPs.
func Fig11(p Profile) *MakespanBars {
	return makespanBars(p, 11, 11, Schedulers(p, true), workload.Poisson{Mean: 100})
}

// makespanBars runs specs over one point — the bar figures' workload
// with task sizes from dist — whose repeats derive from seed id.
// figure is 0 for a supplementary chart.
func makespanBars(p Profile, figure, id int, specs []pnsched.Spec, dist workload.SizeDistribution) *MakespanBars {
	res := &MakespanBars{
		Figure:     figure,
		Profile:    p.Name,
		Dist:       dist.Name(),
		Tasks:      p.Tasks,
		Repeats:    p.Repeats,
		Schedulers: specNames(specs),
	}
	for _, row := range p.sweep(specs, []point{{wl: p.workload(p.Tasks, dist, p.BarMeanComm), id: id}}) {
		agg := row[0]
		res.Makespan = append(res.Makespan, agg.Makespan.Mean)
		res.CI = append(res.CI, 1.96*agg.Makespan.StdErr)
		res.Efficiency = append(res.Efficiency, agg.Efficiency.Mean)
		res.Completed = append(res.Completed, float64(agg.Completed)/float64(agg.N))
	}
	return res
}

// label names the experiment in titles: "Fig N" for paper figures,
// "Supplementary" for extensions.
func (r *MakespanBars) label() string {
	if r.Figure > 0 {
		return fmt.Sprintf("Fig %d", r.Figure)
	}
	return "Supplementary"
}

// Table renders one row per scheduler in the paper's bar order.
func (r *MakespanBars) Table() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("%s: makespan, %s, %d tasks, %d repeats (%s profile)",
			r.label(), r.Dist, r.Tasks, r.Repeats, r.Profile),
		Header: []string{"scheduler", "makespan", "ci95", "efficiency"},
	}
	for si, name := range r.Schedulers {
		t.AddRow(name, r.Makespan[si], r.CI[si], r.Efficiency[si])
	}
	return t
}

// WritePlot draws a horizontal bar chart of makespans.
func (r *MakespanBars) WritePlot(w io.Writer) {
	writeBars(w, fmt.Sprintf("%s: makespan by scheduler (%s)", r.label(), r.Dist), r.Schedulers, r.Makespan, 56)
}
