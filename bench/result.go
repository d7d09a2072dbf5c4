package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pnsched"
)

// metricDef names one reported metric and its unit; an end-to-end
// metric also has the share of the parent's median by which it may get
// worse (bound) and its better direction. BENCHMARK.json lists the same;
// bench_test.go checks the two agree.
type metricDef struct {
	name, unit string
	bound      float64
	higher     bool // a larger value is the better one
}

// endToEndMetrics are what a user of the system sees; untraced runs
// report exactly these. The timing bounds are the widest the contract
// allows: see README, "Noise".
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "tasks_per_s", unit: "1/s", bound: 0.25, higher: true},
	{name: "job_latency_p50_ms", unit: "ms", bound: 0.25},
	{name: "job_latency_p90_ms", unit: "ms", bound: 0.25},
	{name: "allocs_per_task", unit: "count", bound: 0.15},
	{name: "alloc_kb_per_task", unit: "KiB", bound: 0.15},
	{name: "makespan_over_ideal", unit: "ratio", bound: 0.05},
}

// gatedMetric finds the end-to-end metric of that name.
func gatedMetric(name string) (metricDef, bool) {
	for _, m := range endToEndMetrics {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// perLayerMetrics are what traced runs report. A metric of a layer the
// workload bypasses reads 0; the span shares are percentages for that
// reason (the absolute times are in the result's detail block and the
// trace file).
var perLayerMetrics = []metricDef{
	// dist: probes, then counts from the traced phase.
	{name: "dist.decode_ns_per_frame", unit: "ns"},
	{name: "dist.decode_allocs_per_frame", unit: "count"},
	{name: "dist.encode_ns_per_frame", unit: "ns"},
	{name: "dist.publish_ns_per_event_sub1", unit: "ns"},
	{name: "dist.publish_ns_per_event_sub8", unit: "ns"},
	{name: "dist.watch_frames_per_task", unit: "count"},
	{name: "dist.watch_dropped_share", unit: "ratio"},
	// jobs
	{name: "jobs.submit_us_q2000", unit: "us"},
	{name: "jobs.submit_journal_us_q2000", unit: "us"},
	{name: "jobs.snapshot_ms_q256", unit: "ms"},
	{name: "jobs.replay_ms_q2000", unit: "ms"},
	{name: "jobs.batches_per_job", unit: "count"},
	{name: "jobs.journal_records_per_task", unit: "count"},
	{name: "jobs.journal_bytes_per_task", unit: "B"},
	{name: "jobs.snapshots_per_ktask", unit: "count"},
	// core / ga
	{name: "core.sched_batch_p50_ms", unit: "ms"},
	{name: "core.generations_per_batch", unit: "count"},
	{name: "core.genes_per_batch", unit: "count"},
	{name: "core.budget_stop_share", unit: "ratio"},
	{name: "core.best_makespan_s", unit: "model_s"},
	{name: "core.evolve_ms_h200_m50", unit: "ms"},
	{name: "core.evolve_allocs_h200_m50", unit: "count"},
	{name: "core.evolve_alloc_kb_h200_m50", unit: "KiB"},
	{name: "core.listpop_ms_h200_m50", unit: "ms"},
	{name: "core.evolve_island_ms_h200_m50", unit: "ms"},
	{name: "ga.step_us_h200_m50", unit: "us"},
	{name: "ga.step_allocs_h200_m50", unit: "count"},
	// sim / eventq / sched / workload
	{name: "sim.events_per_task", unit: "count"},
	{name: "eventq.push_pop_ns", unit: "ns"},
	{name: "sched.mm_batch_us_h200_m50", unit: "us"},
	{name: "workload.generate_us_per_ktask", unit: "us"},
	// span self-time shares of the traced phase
	{name: "span.job_self_pct", unit: "%"},
	{name: "span.client_submit_self_pct", unit: "%"},
	{name: "span.jobs_queued_self_pct", unit: "%"},
	{name: "span.jobs_running_self_pct", unit: "%"},
	{name: "span.sched_batch_self_pct", unit: "%"},
	// process
	{name: "proc.cpu_ms_per_ktask", unit: "ms"},
	{name: "proc.gc_cycles_per_ktask", unit: "count"},
	{name: "proc.peak_heap_mb", unit: "MiB"},
	{name: "proc.calib_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the one JSON object the contract asks for on the last
// line of standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run's full record: the verdict the driver reads, plus
// what the results file keeps for -compare.
type result struct {
	verdict

	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	InputHash   string             `json:"input_hash"`
	Counts      map[string]int     `json:"counts"`
	Detail      map[string]float64 `json:"detail"`
	OpErrors    []string           `json:"op_errors,omitempty"`    // first few failed ops
	CheckErrors []string           `json:"check_errors,omitempty"` // failed end-of-run checks
	Stamp       stamp              `json:"stamp"`

	units map[string]string
}

func newResult(cfg runConfig) *result {
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	units := map[string]string{}
	for _, d := range defs {
		units[d.name] = d.unit
	}
	return &result{
		verdict:  verdict{Metrics: map[string]metricValue{}},
		Workload: cfg.def.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Counts: map[string]int{}, Detail: map[string]float64{},
		Stamp: newStamp(cfg.outDir),
		units: units,
	}
}

// set records a metric; naming one outside the run's table is a bug in
// the harness.
func (r *result) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("bench: metric " + name + " is not in this run's table")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.OpErrors) < 5 {
		r.OpErrors = append(r.OpErrors, err.Error())
	}
}

func (r *result) checkFailed(err error) {
	r.CheckErrors = append(r.CheckErrors, err.Error())
}

// appendTo adds the full result as one line of a JSON-lines file.
func (r *result) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err = os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// observerOf returns the recorder's Observer, or a nil interface when
// the run is untraced.
func observerOf(rec *recorder) pnsched.Observer {
	if rec == nil {
		return nil
	}
	return rec.observer()
}

// perLayer fills the traced run's metrics: counts and spans from the
// traced phase, then the probes, and writes the trace file.
func (res *result) perLayer(cfg runConfig, rec *recorder, untraced []phase, traced *phase, delta map[string]float64, calib float64) error {
	def := cfg.def
	tasks := float64(traced.tasks())
	ops := float64(len(traced.ops))

	// dist
	res.set("dist.watch_frames_per_task", ratio(delta["watch_frames"], tasks))
	res.set("dist.watch_dropped_share", ratio(delta["watch_dropped"], delta["watch_frames"]+delta["watch_dropped"]))

	// jobs: the journal counters exist only on the job service.
	rec.mu.Lock()
	batches := rec.batches
	evolves := rec.evolves
	waited := rec.waited
	rec.mu.Unlock()
	res.set("jobs.batches_per_job", ratio(float64(len(batches)), ops))
	res.set("jobs.journal_records_per_task", ratio(delta["pnsched_jobs_journal_records_total"], tasks))
	res.set("jobs.journal_bytes_per_task", ratio(delta["pnsched_jobs_journal_bytes_total"], tasks))
	res.set("jobs.snapshots_per_ktask", ratio(delta["pnsched_jobs_journal_snapshots_total"], tasks/1000))

	// core / ga, from the batch spans and the GA's own ledger.
	var batchMS []float64
	for _, b := range batches {
		batchMS = append(batchMS, (b.end-b.start).Seconds()*1e3)
	}
	res.set("core.sched_batch_p50_ms", median(batchMS))
	var gens, genes, best, stops float64
	for _, e := range evolves {
		gens += float64(e.Generations)
		genes += float64(e.Genes)
		best += float64(e.BestMakespan)
		if e.Reason == "callback" {
			stops++
		}
	}
	n := float64(len(evolves))
	res.set("core.generations_per_batch", ratio(gens, n))
	res.set("core.genes_per_batch", ratio(genes, n))
	res.set("core.budget_stop_share", ratio(stops, n))
	res.set("core.best_makespan_s", ratio(best, n))

	// sim
	res.set("sim.events_per_task", 0)
	if def.kind == kindSim {
		ev, err := simEventsPerTask(def, cfg.seed)
		if err != nil {
			return err
		}
		res.set("sim.events_per_task", ev)
	}

	// spans
	spans := buildSpans(def, traced.ops, rec, traced.start.Sub(rec.epoch), traced.end.Sub(rec.epoch))
	shares := selfShares(spans)
	res.set("span.job_self_pct", shares["job"]+shares["run"])
	res.set("span.client_submit_self_pct", shares["client.submit"])
	res.set("span.jobs_queued_self_pct", shares["jobs.queued"])
	res.set("span.jobs_running_self_pct", shares["jobs.running"])
	res.set("span.sched_batch_self_pct", shares["sched.batch"])
	res.Counts["spans"] = len(spans)
	res.spanDetail(spans, waited)
	if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+def.name+".json"), res, spans); err != nil {
		return err
	}

	// process
	res.set("proc.cpu_ms_per_ktask", ratio(traced.cpu.Seconds()*1e3, tasks/1000))
	res.set("proc.gc_cycles_per_ktask", ratio(float64(traced.gcCycles), tasks/1000))
	res.set("proc.peak_heap_mb", peakHeapMiB())
	res.set("proc.calib_ms", calib)
	var offTasks, offWall float64
	for _, p := range untraced {
		offTasks += float64(p.tasks())
		offWall += p.end.Sub(p.start).Seconds()
	}
	offRate := ratio(offTasks, offWall)
	onRate := ratio(tasks, traced.end.Sub(traced.start).Seconds())
	res.set("trace.overhead_pct", 100*ratio(offRate-onRate, offRate))
	res.Detail["untraced_tasks_per_s"] = offRate
	res.Detail["traced_tasks_per_s"] = onRate

	return res.probes(cfg)
}

// spanDetail records the absolute span times the shares are made of —
// the p50 of each span name's duration, and the queue wait the
// dispatcher itself reported.
func (res *result) spanDetail(spans []span, waited []float64) {
	byName := map[string][]float64{}
	selfByName := map[string][]float64{}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		byName[s.Name] = append(byName[s.Name], (s.End-s.Start)/1e3)
		selfByName[s.Name] = append(selfByName[s.Name], s.Self/1e3)
	}
	for name, d := range byName {
		res.Detail["span."+name+".p50_ms"] = median(d)
		res.Detail["span."+name+".self_p50_ms"] = median(selfByName[name])
	}
	if len(waited) > 0 {
		res.Detail["jobs.queue_wait_p50_ms"] = median(waited) * 1e3
	}
}

// writeTrace writes the spans, with their self times, beside the run's
// summary.
func writeTrace(path string, res *result, spans []span) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{res.Workload, res.Seed, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
