package experiments

import (
	"fmt"
	"io"
	"time"

	"pnsched"
	"pnsched/internal/core"
	"pnsched/internal/metrics"
	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/stats"
	"pnsched/internal/units"
)

// Fig3Result holds the GA-convergence study of the paper's Fig. 3:
// "Average reduction in makespan after each generation of the GA" for a
// pure GA, one rebalance, and fifty rebalances per individual per
// generation, each averaged over Fig3Runs runs.
type Fig3Result struct {
	Profile     string
	Runs        int
	Generations int
	// Each curve holds the best makespan after generation g as a
	// fraction of the initial best (index 0 = 1.0), averaged over runs.
	Pure, One, Fifty []float64
}

// fig3Run optimises one Fig. 3 batch: 200 uniform tasks (fewer if the
// sweeps are smaller) on the profile's cluster with empty queues.
func fig3Run(p Profile, rebalances int, seed uint64) []float64 {
	base := rng.New(seed)
	problem := p.batchProblem(seed, min(pnsched.DefaultBatchSize, p.SweepTasks), p.Procs, false)
	cfg := core.DefaultConfig()
	cfg.Generations = p.Generations
	cfg.Rebalances = rebalances
	history := make([]float64, 0, p.Generations+1)
	cfg.Observer = observe.Funcs{GenerationBest: func(e observe.GenerationBest) {
		history = append(history, float64(e.Makespan))
	}}
	initial := core.ListPopulation(problem, cfg.Population, base.Stream(streamSched))
	core.Evolve(problem, cfg, initial, units.Inf(), base.Stream(streamSched+1))
	if len(history) == 0 || history[0] <= 0 {
		return history
	}
	init := history[0]
	for i := range history {
		history[i] /= init
	}
	return history
}

// Fig3 regenerates the paper's Fig. 3.
func Fig3(p Profile) *Fig3Result {
	res := &Fig3Result{
		Profile:     p.Name,
		Runs:        p.Fig3Runs,
		Generations: p.Generations,
	}
	settings := []struct {
		rebalances int
		out        *[]float64
	}{
		{0, &res.Pure},
		{1, &res.One},
		{50, &res.Fifty},
	}
	for si, s := range settings {
		curves := make([][]float64, p.Fig3Runs)
		parallelFor(p.Fig3Runs, p.workers(), func(run int) {
			curves[run] = fig3Run(p, s.rebalances, p.repeatSeed(3, si*1000+run))
		})
		avg := make([]float64, p.Generations+1)
		for g := range avg {
			var sum float64
			n := 0
			for _, c := range curves {
				if g < len(c) {
					sum += c[g]
					n++
				}
			}
			if n > 0 {
				avg[g] = sum / float64(n)
			}
		}
		*s.out = avg
	}
	return res
}

// Table renders the three curves sampled at ~20 generations.
func (r *Fig3Result) Table() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Fig 3: best makespan as fraction of initial, avg of %d runs (%s profile)",
			r.Runs, r.Profile),
		Header: []string{"generation", "pure GA", "1 rebalance", "50 rebalances"},
	}
	step := r.Generations / 20
	if step < 1 {
		step = 1
	}
	for g := 0; g <= r.Generations; g += step {
		t.AddRow(g, r.Pure[g], r.One[g], r.Fifty[g])
	}
	if last := r.Generations; last%step != 0 {
		t.AddRow(last, r.Pure[last], r.One[last], r.Fifty[last])
	}
	return t
}

// WritePlot draws the convergence curves.
func (r *Fig3Result) WritePlot(w io.Writer) {
	xs := make([]float64, r.Generations+1)
	for i := range xs {
		xs[i] = float64(i)
	}
	metrics.Plot(w, "Fig 3: fraction of initial makespan vs generation", []metrics.Series{
		{Name: "pure GA", X: xs, Y: r.Pure},
		{Name: "1 rebalance", X: xs, Y: r.One},
		{Name: "50 rebalances", X: xs, Y: r.Fifty},
	}, 72, 18)
}

// Fig4Result holds the paper's Fig. 4: wall-clock time to schedule the
// task set with varying numbers of rebalances per generation, plus the
// linear fit ("It increases the time taken linearly").
type Fig4Result struct {
	Profile    string
	Tasks      int
	Rebalances []int
	Seconds    []float64
	Fit        stats.LinReg
}

// Fig4 regenerates the paper's Fig. 4 by actually running and timing
// the GA scheduling of Fig4Tasks tasks, batch by batch, at each
// rebalance count. Timing runs are sequential — parallel timing would
// contend for cores and corrupt the measurement.
func Fig4(p Profile) *Fig4Result {
	res := &Fig4Result{Profile: p.Name, Tasks: p.Fig4Tasks}
	step := p.Fig4Step
	if step < 1 {
		step = 1
	}
	for rb := 0; rb <= 20; rb += step {
		res.Rebalances = append(res.Rebalances, rb)
		res.Seconds = append(res.Seconds, fig4Time(p, rb))
	}
	xs := make([]float64, len(res.Rebalances))
	for i, rb := range res.Rebalances {
		xs[i] = float64(rb)
	}
	if fit, err := stats.LinearRegression(xs, res.Seconds); err == nil {
		res.Fit = fit
	}
	return res
}

// fig4Time schedules the whole task set through the GA (batches of 200)
// with the given rebalance count and returns the measured wall time.
func fig4Time(p Profile, rebalances int) float64 {
	base := rng.New(p.repeatSeed(4, rebalances))
	tasks, rates, _ := p.draw(base, p.Fig4Tasks, p.Procs, false)
	loads := make([]units.MFlops, p.Procs)
	cfg := core.DefaultConfig()
	cfg.Generations = p.Generations
	cfg.Rebalances = rebalances

	gaRNG := base.Stream(streamSched)
	start := time.Now()
	for off := 0; off < len(tasks); off += pnsched.DefaultBatchSize {
		end := off + pnsched.DefaultBatchSize
		if end > len(tasks) {
			end = len(tasks)
		}
		problem := core.BuildProblem(tasks[off:end], rates, loads, nil, false)
		initial := core.ListPopulation(problem, cfg.Population, gaRNG)
		st := core.Evolve(problem, cfg, initial, units.Inf(), gaRNG)
		// Accumulate the schedule into the loads the next batch sees,
		// exactly as the live scheduler's queues would.
		for j, q := range core.Decode(st.Result.Best, p.Procs) {
			for _, i := range q {
				loads[j] += problem.Batch[i].Size
			}
		}
	}
	return time.Since(start).Seconds()
}

// Table renders the timing rows and the linear fit.
func (r *Fig4Result) Table() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Fig 4: wall-clock seconds to GA-schedule %d tasks vs rebalances (%s profile); fit slope %.3gs/rebalance, R²=%.3f",
			r.Tasks, r.Profile, r.Fit.Slope, r.Fit.R2),
		Header: []string{"rebalances", "seconds"},
	}
	for i, rb := range r.Rebalances {
		t.AddRow(rb, r.Seconds[i])
	}
	return t
}

// WritePlot draws time vs rebalances.
func (r *Fig4Result) WritePlot(w io.Writer) {
	xs := make([]float64, len(r.Rebalances))
	for i, rb := range r.Rebalances {
		xs[i] = float64(rb)
	}
	metrics.Plot(w, "Fig 4: scheduling time (s) vs rebalances per generation", []metrics.Series{
		{Name: "measured", X: xs, Y: r.Seconds},
	}, 72, 14)
}
