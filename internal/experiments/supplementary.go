package experiments

import (
	"fmt"
	"io"

	"pnsched/internal/cluster"
	"pnsched/internal/metrics"
	"pnsched/internal/network"
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
var ExtendedOrder = append(append([]string(nil), SchedulerOrder...), "MET", "OLB", "KPB", "SUF")

// ExtendedSchedulers returns the paper's seven schedulers plus the
// four Maheswaran et al. heuristics, built through the registry.
func ExtendedSchedulers(p Profile, fixedBatch bool) []SchedulerSpec {
	return p.schedulerSpecs(ExtendedOrder, fixedBatch)
}

// Scheduler subsets of the supplementary studies, as canonical
// registry names — resolved through p.schedulerSpecs, which refuses
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
	specs := ExtendedSchedulers(p, true)
	dist := workload.Normal{Mean: 1000, Variance: 9e5}
	res := &MakespanBars{
		Figure:  0,
		Profile: p.Name,
		Dist:    dist.Name() + " (extended scheduler set)",
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
			netCfg:  network.Config{MeanCost: p.BarMeanComm, LinkSpread: 0.3, Jitter: 0.2},
		}
		samples[i] = runOne(sc, specs[j.si], p.repeatSeed(90, j.rep))
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
	specs := p.schedulerSpecs(ScalabilitySchedulers, true)
	res := &ScalabilityResult{Profile: p.Name, Tasks: p.Tasks, Procs: procs}
	for _, s := range specs {
		res.Schedulers = append(res.Schedulers, s.Name)
	}
	res.Makespan = make([][]float64, len(specs))
	res.Efficiency = make([][]float64, len(specs))
	for si := range specs {
		res.Makespan[si] = make([]float64, len(procs))
		res.Efficiency[si] = make([]float64, len(procs))
	}

	type job struct{ si, mi, rep int }
	var jobs []job
	for si := range specs {
		for mi := range procs {
			for rep := 0; rep < p.Repeats; rep++ {
				jobs = append(jobs, job{si, mi, rep})
			}
		}
	}
	samples := make([]metrics.Sample, len(jobs))
	parallelFor(len(jobs), p.workers(), func(i int) {
		j := jobs[i]
		sc := scenario{
			profile: p,
			tasks:   p.Tasks,
			dist:    workload.Normal{Mean: 1000, Variance: 9e5},
			netCfg:  network.Config{MeanCost: p.BarMeanComm, LinkSpread: 0.3, Jitter: 0.2},
			procs:   procs[j.mi],
		}
		samples[i] = runOne(sc, specs[j.si], p.repeatSeed(91+j.mi, j.rep))
	})
	bucket := map[[2]int][]metrics.Sample{}
	for i, j := range jobs {
		k := [2]int{j.si, j.mi}
		bucket[k] = append(bucket[k], samples[i])
	}
	for k, ss := range bucket {
		agg := metrics.Aggregate(ss)
		res.Makespan[k[0]][k[1]] = agg.Makespan.Mean
		res.Efficiency[k[0]][k[1]] = agg.Efficiency.Mean
	}
	return res
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

// dynamicScenarios builds the four operating regimes.
func dynamicScenarios(p Profile) []struct {
	name string
	sc   scenario
} {
	base := scenario{
		profile: p,
		tasks:   p.Tasks,
		dist:    workload.Uniform{Lo: 10, Hi: 1000},
		netCfg:  network.Config{MeanCost: p.BarMeanComm, LinkSpread: 0.3, Jitter: 0.2},
	}
	arrivals := base
	arrivals.arrival = workload.PoissonArrivals{MeanGap: 0.05}

	varying := base
	varying.netCfg.DriftSigma = 0.02
	varying.avail = func(i int, r *rng.RNG) cluster.AvailabilityModel {
		if i%2 == 0 {
			return cluster.NewRandomWalk(20, 0.2, 0.3, 0.8, r)
		}
		return cluster.Sinusoidal{Mean: 0.7, Amplitude: 0.25, Period: 200, Phase: float64(i)}
	}

	failures := base
	failures.reissue = 30
	failures.avail = func(i int, r *rng.RNG) cluster.AvailabilityModel {
		if i == 1 {
			return cluster.OffAfter{Cutoff: 60}
		}
		return cluster.Full{}
	}

	return []struct {
		name string
		sc   scenario
	}{
		{"static", base},
		{"arrivals", arrivals},
		{"varying", varying},
		{"failure", failures},
	}
}

// Dynamic runs PN, ZO, EF and RR through the four regimes.
func Dynamic(p Profile) *DynamicResult {
	scens := dynamicScenarios(p)
	specs := p.schedulerSpecs(DynamicSchedulers, true)
	res := &DynamicResult{Profile: p.Name, Tasks: p.Tasks}
	for _, s := range scens {
		res.Scenarios = append(res.Scenarios, s.name)
	}
	for _, s := range specs {
		res.Schedulers = append(res.Schedulers, s.Name)
	}
	res.Makespan = make([][]float64, len(specs))
	res.Completed = make([][]float64, len(specs))
	for si := range specs {
		res.Makespan[si] = make([]float64, len(scens))
		res.Completed[si] = make([]float64, len(scens))
	}

	type job struct{ si, ci, rep int }
	var jobs []job
	for si := range specs {
		for ci := range scens {
			for rep := 0; rep < p.Repeats; rep++ {
				jobs = append(jobs, job{si, ci, rep})
			}
		}
	}
	samples := make([]metrics.Sample, len(jobs))
	parallelFor(len(jobs), p.workers(), func(i int) {
		j := jobs[i]
		samples[i] = runOne(scens[j.ci].sc, specs[j.si], p.repeatSeed(95+j.ci, j.rep))
	})
	bucket := map[[2]int][]metrics.Sample{}
	for i, j := range jobs {
		k := [2]int{j.si, j.ci}
		bucket[k] = append(bucket[k], samples[i])
	}
	for k, ss := range bucket {
		agg := metrics.Aggregate(ss)
		res.Makespan[k[0]][k[1]] = agg.Makespan.Mean
		res.Completed[k[0]][k[1]] = float64(agg.Completed) / float64(len(ss))
	}
	return res
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
	fmt.Fprintln(w, "Dynamic conditions: makespan by scheduler and regime")
	maxVal := 0.0
	for si := range r.Schedulers {
		for ci := range r.Scenarios {
			if r.Makespan[si][ci] > maxVal {
				maxVal = r.Makespan[si][ci]
			}
		}
	}
	if maxVal <= 0 {
		return
	}
	const width = 48
	for si, name := range r.Schedulers {
		for ci, scen := range r.Scenarios {
			n := int(r.Makespan[si][ci] / maxVal * width)
			bar := make([]byte, n)
			for i := range bar {
				bar[i] = '#'
			}
			fmt.Fprintf(w, "  %-3s %-8s %8.1f |%s\n", name, scen, r.Makespan[si][ci], bar)
		}
	}
}
