package experiments

import (
	"fmt"
	"io"

	"pnsched"
	"pnsched/internal/cluster"
	"pnsched/internal/metrics"
	"pnsched/internal/rng"
	"pnsched/internal/workload"
)

// Supplementary experiments beyond the paper's figures:
//
//   - Extended: the Fig-6 workload across eleven schedulers — the
//     paper's seven plus MET, OLB, KPB and Sufferage from its
//     reference [11] (Maheswaran et al.).
//   - Scalability: makespan/efficiency versus cluster size, probing
//     the abstract's "up to 50 heterogeneous processors".
//   - Dynamic: the §3 operating conditions the paper claims but never
//     plots — continuous arrivals, drifting availability and link
//     quality, and a machine failure — compared across schedulers.

// ExtendedOrder is the presentation order of the extended comparison:
// the paper's seven plus the Maheswaran et al. heuristics, all by
// their canonical registry names.
var ExtendedOrder = append(append([]string(nil), pnsched.PaperOrder...), "MET", "OLB", "KPB", "SUF")

// ExtendedSchedulers returns the specs of the paper's seven schedulers
// plus the four Maheswaran et al. heuristics.
func ExtendedSchedulers(p Profile, fixedBatch bool) []pnsched.Spec {
	return p.specs(ExtendedOrder, fixedBatch)
}

// Scheduler subsets of the supplementary studies, as canonical
// registry names — resolved through p.specs, which refuses
// unregistered names instead of silently skipping them (the failure
// mode the old switch-based filtering had when a scheduler was
// renamed or newly registered).
var (
	// ScalabilitySchedulers is swept across cluster sizes.
	ScalabilitySchedulers = []string{"PN", "EF", "RR"}
	// DynamicSchedulers runs through the §3 operating regimes.
	DynamicSchedulers = []string{"PN", "ZO", "EF", "RR"}
)

// Extended runs the Fig-6 workload (normal task sizes) across the
// extended scheduler set.
func Extended(p Profile) *MakespanBars {
	res := makespanBars(p, 0, 90, ExtendedSchedulers(p, true), workload.Normal{Mean: 1000, Variance: 9e5})
	res.Dist += " (extended scheduler set)"
	return res
}

// ScalabilityResult holds makespan and efficiency versus cluster size
// for a subset of schedulers.
type ScalabilityResult struct {
	Profile    string
	Tasks      int
	Procs      []int
	Schedulers []string
	Makespan   [][]float64 // [scheduler][procs index]
	Efficiency [][]float64
}

// Scalability sweeps the processor count from 5 to the profile's
// maximum, with the Fig-5 workload, for PN, EF and RR.
func Scalability(p Profile) *ScalabilityResult {
	var procs []int
	for _, m := range []int{5, 10, 20, 30, 40, 50} {
		if m <= p.Procs {
			procs = append(procs, m)
		}
	}
	if len(procs) == 0 || procs[len(procs)-1] != p.Procs {
		procs = append(procs, p.Procs)
	}
	specs := p.specs(ScalabilitySchedulers, true)
	points := make([]point, len(procs))
	for mi, m := range procs {
		points[mi] = point{wl: p.workload(p.Tasks, workload.Normal{Mean: 1000, Variance: 9e5}, p.BarMeanComm), id: 91 + mi}
		points[mi].wl.Procs = m
	}
	aggs := p.sweep(specs, points)
	return &ScalabilityResult{
		Profile:    p.Name,
		Tasks:      p.Tasks,
		Procs:      procs,
		Schedulers: specNames(specs),
		Makespan:   each(aggs, meanMakespan),
		Efficiency: each(aggs, meanEfficiency),
	}
}

// Table renders makespan (and efficiency) per cluster size.
func (r *ScalabilityResult) Table() *metrics.Table {
	t := &metrics.Table{
		Title:  fmt.Sprintf("Scalability: %d tasks, makespan[s] / efficiency vs processors (%s profile)", r.Tasks, r.Profile),
		Header: append([]string{"procs"}, r.Schedulers...),
	}
	for mi, m := range r.Procs {
		row := []any{m}
		for si := range r.Schedulers {
			row = append(row, fmt.Sprintf("%.0f / %.3f", r.Makespan[si][mi], r.Efficiency[si][mi]))
		}
		t.AddRow(row...)
	}
	return t
}

// WritePlot draws makespan vs processors.
func (r *ScalabilityResult) WritePlot(w io.Writer) {
	xs := make([]float64, len(r.Procs))
	for i, m := range r.Procs {
		xs[i] = float64(m)
	}
	series := make([]metrics.Series, len(r.Schedulers))
	for si, name := range r.Schedulers {
		series[si] = metrics.Series{Name: name, X: xs, Y: r.Makespan[si]}
	}
	metrics.Plot(w, "Scalability: makespan vs processors", series, 72, 14)
}

// DynamicResult compares schedulers across the §3 operating regimes.
type DynamicResult struct {
	Profile    string
	Tasks      int
	Scenarios  []string
	Schedulers []string
	Makespan   [][]float64 // [scheduler][scenario]
	Completed  [][]float64 // mean completed tasks (failures can strand work)
}

// Dynamic runs PN, ZO, EF and RR through the four regimes: all tasks
// at start, Poisson arrivals, drifting availability and link quality,
// and a machine that dies at t=60 with failure recovery on.
func Dynamic(p Profile) *DynamicResult {
	static := point{wl: p.workload(p.Tasks, workload.Uniform{Lo: 10, Hi: 1000}, p.BarMeanComm)}

	arrivals := static
	arrivals.wl.ArrivalGap = 0.05

	varying := static
	varying.wl.DriftSigma = 0.02
	varying.avail = func(i int, r *rng.RNG) cluster.AvailabilityModel {
		if i%2 == 0 {
			return cluster.NewRandomWalk(20, 0.2, 0.3, 0.8, r)
		}
		return cluster.Sinusoidal{Mean: 0.7, Amplitude: 0.25, Period: 200, Phase: float64(i)}
	}

	failure := static
	failure.wl.ReissueTimeout = 30
	failure.avail = func(i int, r *rng.RNG) cluster.AvailabilityModel {
		if i == 1 {
			return cluster.OffAfter{Cutoff: 60}
		}
		return cluster.Full{}
	}

	points := []point{static, arrivals, varying, failure}
	for ci := range points {
		points[ci].id = 95 + ci
	}
	specs := p.specs(DynamicSchedulers, true)
	aggs := p.sweep(specs, points)
	return &DynamicResult{
		Profile:    p.Name,
		Tasks:      p.Tasks,
		Scenarios:  []string{"static", "arrivals", "varying", "failure"},
		Schedulers: specNames(specs),
		Makespan:   each(aggs, meanMakespan),
		Completed:  each(aggs, func(a metrics.Agg) float64 { return float64(a.Completed) / float64(a.N) }),
	}
}

// Table renders scheduler × scenario makespans (with completion counts
// where tasks can strand).
func (r *DynamicResult) Table() *metrics.Table {
	t := &metrics.Table{
		Title:  fmt.Sprintf("Dynamic conditions: %d tasks, mean makespan[s] (completed) per regime (%s profile)", r.Tasks, r.Profile),
		Header: append([]string{"scheduler"}, r.Scenarios...),
	}
	for si, name := range r.Schedulers {
		row := []any{name}
		for ci := range r.Scenarios {
			row = append(row, fmt.Sprintf("%.0f (%.0f)", r.Makespan[si][ci], r.Completed[si][ci]))
		}
		t.AddRow(row...)
	}
	return t
}

// WritePlot draws grouped bars as one row per scheduler/scenario.
func (r *DynamicResult) WritePlot(w io.Writer) {
	var labels []string
	var vals []float64
	for si, name := range r.Schedulers {
		for ci, scen := range r.Scenarios {
			labels = append(labels, fmt.Sprintf("%-3s %-8s", name, scen))
			vals = append(vals, r.Makespan[si][ci])
		}
	}
	writeBars(w, "Dynamic conditions: makespan by scheduler and regime", labels, vals, 48)
}
