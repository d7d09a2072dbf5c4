package experiments

import (
	"fmt"
	"io"

	"pnsched/internal/metrics"
	"pnsched/internal/network"
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
	res := &EfficiencySweep{
		Figure:  figure,
		Profile: p.Name,
		Dist:    dist.Name(),
		Repeats: p.Repeats,
		X:       xs,
	}
	for _, s := range specs {
		res.Schedulers = append(res.Schedulers, s.Name)
	}
	res.Eff = make([][]float64, len(specs))
	res.CI = make([][]float64, len(specs))
	for si := range specs {
		res.Eff[si] = make([]float64, len(xs))
		res.CI[si] = make([]float64, len(xs))
	}

	// One flat job list over (x, scheduler, repeat) to keep every core
	// busy regardless of how slow individual schedulers are.
	type job struct{ xi, si, rep int }
	var jobs []job
	for xi := range xs {
		for si := range specs {
			for rep := 0; rep < p.Repeats; rep++ {
				jobs = append(jobs, job{xi, si, rep})
			}
		}
	}
	samples := make([]metrics.Sample, len(jobs))
	parallelFor(len(jobs), p.workers(), func(i int) {
		j := jobs[i]
		sc := scenario{
			profile: p,
			tasks:   p.SweepTasks,
			dist:    dist,
			netCfg: network.Config{
				MeanCost:   units.Seconds(1 / xs[j.xi]),
				LinkSpread: 0.3,
				Jitter:     0.2,
			},
		}
		samples[i] = runOne(sc, specs[j.si], p.repeatSeed(figure*100+j.xi, j.rep))
	})
	// Aggregate per (scheduler, x).
	bucket := make(map[[2]int][]metrics.Sample)
	for i, j := range jobs {
		k := [2]int{j.si, j.xi}
		bucket[k] = append(bucket[k], samples[i])
	}
	for k, ss := range bucket {
		agg := metrics.Aggregate(ss)
		res.Eff[k[0]][k[1]] = agg.Efficiency.Mean
		res.CI[k[0]][k[1]] = 1.96 * agg.Efficiency.StdErr
	}
	return res
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

// Best returns the scheduler with the highest mean efficiency across
// the sweep.
func (r *EfficiencySweep) Best() string {
	bestName, bestVal := "", -1.0
	for si, name := range r.Schedulers {
		var sum float64
		for _, e := range r.Eff[si] {
			sum += e
		}
		if sum > bestVal {
			bestVal = sum
			bestName = name
		}
	}
	return bestName
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
}

// Fig6 regenerates the paper's Fig. 6: makespan with task sizes
// normal(1000 MFLOPs, 9×10⁵), with PN's dynamic batch sizing active
// ("the makespan for the algorithm, with a varying batch size").
func Fig6(p Profile) *MakespanBars {
	return makespanBars(p, 6, workload.Normal{Mean: 1000, Variance: 9e5}, false)
}

// Fig8 regenerates Fig. 8: uniform task sizes 10–100 MFLOPs (a 1:10
// ratio under which the schedulers converge).
func Fig8(p Profile) *MakespanBars {
	return makespanBars(p, 8, workload.Uniform{Lo: 10, Hi: 100}, true)
}

// Fig9 regenerates Fig. 9: uniform task sizes 10–10000 MFLOPs (1:1000,
// accentuating the differences).
func Fig9(p Profile) *MakespanBars {
	return makespanBars(p, 9, workload.Uniform{Lo: 10, Hi: 10000}, true)
}

// Fig10 regenerates Fig. 10: Poisson task sizes with mean 10 MFLOPs.
func Fig10(p Profile) *MakespanBars {
	return makespanBars(p, 10, workload.Poisson{Mean: 10}, true)
}

// Fig11 regenerates Fig. 11: Poisson task sizes with mean 100 MFLOPs.
func Fig11(p Profile) *MakespanBars {
	return makespanBars(p, 11, workload.Poisson{Mean: 100}, true)
}

func makespanBars(p Profile, figure int, dist workload.SizeDistribution, fixedBatch bool) *MakespanBars {
	specs := Schedulers(p, fixedBatch)
	res := &MakespanBars{
		Figure:  figure,
		Profile: p.Name,
		Dist:    dist.Name(),
		Tasks:   p.Tasks,
		Repeats: p.Repeats,
	}
	for _, s := range specs {
		res.Schedulers = append(res.Schedulers, s.Name)
	}
	res.Makespan = make([]float64, len(specs))
	res.CI = make([]float64, len(specs))
	res.Efficiency = make([]float64, len(specs))

	type job struct{ si, rep int }
	var jobs []job
	for si := range specs {
		for rep := 0; rep < p.Repeats; rep++ {
			jobs = append(jobs, job{si, rep})
		}
	}
	samples := make([]metrics.Sample, len(jobs))
	parallelFor(len(jobs), p.workers(), func(i int) {
		j := jobs[i]
		sc := scenario{
			profile: p,
			tasks:   p.Tasks,
			dist:    dist,
			netCfg: network.Config{
				MeanCost:   p.BarMeanComm,
				LinkSpread: 0.3,
				Jitter:     0.2,
			},
		}
		samples[i] = runOne(sc, specs[j.si], p.repeatSeed(figure, j.rep))
	})
	for si := range specs {
		var ss []metrics.Sample
		for i, j := range jobs {
			if j.si == si {
				ss = append(ss, samples[i])
			}
		}
		agg := metrics.Aggregate(ss)
		res.Makespan[si] = agg.Makespan.Mean
		res.CI[si] = 1.96 * agg.Makespan.StdErr
		res.Efficiency[si] = agg.Efficiency.Mean
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
	fmt.Fprintf(w, "%s: makespan by scheduler (%s)\n", r.label(), r.Dist)
	maxVal := 0.0
	for _, v := range r.Makespan {
		if v > maxVal {
			maxVal = v
		}
	}
	if maxVal <= 0 {
		return
	}
	const width = 56
	for si, name := range r.Schedulers {
		n := int(r.Makespan[si] / maxVal * width)
		bar := make([]byte, n)
		for i := range bar {
			bar[i] = '#'
		}
		fmt.Fprintf(w, "  %-3s %8.1f |%s\n", name, r.Makespan[si], bar)
	}
}

// Best returns the scheduler with the lowest mean makespan.
func (r *MakespanBars) Best() string {
	best, bestVal := "", 0.0
	for si, name := range r.Schedulers {
		if best == "" || r.Makespan[si] < bestVal {
			best, bestVal = name, r.Makespan[si]
		}
	}
	return best
}
