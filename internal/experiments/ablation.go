package experiments

import (
	"fmt"
	"io"

	"pnsched"
	"pnsched/internal/core"
	"pnsched/internal/ga"
	"pnsched/internal/metrics"
	"pnsched/internal/rng"
	"pnsched/internal/workload"
)

// AblationStudy measures the paper's design choices one at a time,
// each beside the paper's own choice on identical inputs. The GA rows
// decide Repeats batch problems (min(200, SweepTasks) uniform tasks on
// the profile's cluster, communication in the fitness) with the §3.3
// list-scheduled population and cycle crossover, then with ZO-style
// random seeding, PMX or OX in their place. The simulation rows run
// Fig. 6's workload with PN's §3.7 dynamic batch sizing, with PN at a
// fixed batch of 200, and with ZO (communication left out of the
// fitness) at the same batch. The rebalance ablation is Fig. 3.
type AblationStudy struct {
	Profile     string
	BatchTasks  int
	Procs       int
	Generations int
	Repeats     int

	Variants []string  // the GA rows, the paper's choice first
	Makespan []float64 // mean best predicted makespan (s)
	CI       []float64 // 95% confidence half-widths
	Genes    []float64 // mean genes evaluated per decision

	Sim *MakespanBars // the simulation rows: "PN dynamic", "PN fixed", "ZO fixed"
}

// Ablation runs the design-choice study.
func Ablation(p Profile) *AblationStudy {
	n := min(pnsched.DefaultBatchSize, p.SweepTasks)
	rows := []struct {
		label string
		cx    ga.Crossover
		seed  func(*core.Problem, int, *rng.RNG) []ga.Chromosome
	}{
		{"CX, list init", ga.CX, core.ListPopulation},
		{"CX, random init", ga.CX, core.RandomPopulation},
		{"PMX, list init", ga.PMX, core.ListPopulation},
		{"OX, list init", ga.OX, core.ListPopulation},
	}
	res := &AblationStudy{
		Profile:     p.Name,
		BatchTasks:  n,
		Procs:       p.Procs,
		Generations: p.Generations,
		Repeats:     p.Repeats,
	}
	variants := make([]gaRun, len(rows))
	for vi, row := range rows {
		cfg := core.DefaultConfig()
		cfg.Generations = p.Generations
		cfg.Crossover = row.cx
		variants[vi] = sequential(cfg, row.seed)
		res.Variants = append(res.Variants, row.label)
	}
	runs, _ := p.gaRepeats(110, 0xab1a7e, n, p.Procs, variants)
	for _, reps := range runs {
		mk := summarize(reps, bestMakespan)
		res.Makespan = append(res.Makespan, mk.Mean)
		res.CI = append(res.CI, 1.96*mk.StdErr)
		res.Genes = append(res.Genes, summarize(reps, func(st core.EvolveStats) float64 { return float64(st.GenesEvaluated) }).Mean)
	}

	specs := append(p.specs([]string{"PN"}, false), p.specs([]string{"PN", "ZO"}, true)...)
	res.Sim = makespanBars(p, 0, 111, specs, workload.Normal{Mean: 1000, Variance: 9e5})
	res.Sim.Schedulers = []string{"PN dynamic", "PN fixed", "ZO fixed"}
	return res
}

// Table renders the GA rows, then the simulation rows, which have no
// single decision's gene count.
func (r *AblationStudy) Table() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Ablation: GA rows decide a batch of %d tasks on %d procs in %d generations; simulation rows run %d %s tasks; %d repeats (%s profile)",
			r.BatchTasks, r.Procs, r.Generations, r.Sim.Tasks, r.Sim.Dist, r.Repeats, r.Profile),
		Header: []string{"variant", "makespan[s]", "ci95", "genes"},
	}
	for vi, name := range r.Variants {
		t.AddRow(name, r.Makespan[vi], r.CI[vi], r.Genes[vi])
	}
	for si, name := range r.Sim.Schedulers {
		t.AddRow(name, r.Sim.Makespan[si], r.Sim.CI[si], "-")
	}
	return t
}

// WritePlot draws one bar chart per level: the GA rows' predicted
// makespans and the simulation rows' observed ones.
func (r *AblationStudy) WritePlot(w io.Writer) {
	writeBars(w, "Ablation: best predicted makespan of one batch decision", r.Variants, r.Makespan, 48)
	fmt.Fprintln(w)
	writeBars(w, "Ablation: simulated makespan", r.Sim.Schedulers, r.Sim.Makespan, 48)
}
