package pnsched_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pnsched"
)

// scrapeMetrics GETs the admin endpoint's /metrics and returns the
// body, failing the test on transport or status errors.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	return string(body)
}

// parsePrometheus is a strict line-level parser for the text exposition
// format: every line must be a HELP, a TYPE, or a sample; every sample
// must follow a TYPE for its family. It returns sample values keyed by
// the full series name (with label set).
func parsePrometheus(t *testing.T, body string) map[string]float64 {
	t.Helper()
	helpRe := regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	typed := map[string]bool{}
	samples := map[string]float64{}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if m := typeRe.FindStringSubmatch(line); m != nil {
			typed[m[1]] = true
			continue
		}
		if helpRe.MatchString(line) {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is not valid exposition format: %q", i+1, line)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
		if !typed[m[1]] && !typed[base] {
			t.Fatalf("line %d: sample %q precedes its # TYPE", i+1, m[1])
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: unparseable value %q", i+1, m[3])
		}
		if _, dup := samples[m[1]+m[2]]; dup {
			t.Fatalf("line %d: duplicate series %s%s", i+1, m[1], m[2])
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

// TestServeAdminMetricsEndToEnd runs a live workload with the HTTP
// admin endpoint enabled, scrapes /metrics mid-run (it must always be
// valid exposition format) and after completion, and checks the final
// scrape agrees with the server's own Snapshot — including the
// dispatch-latency histogram buckets and the GA counters the scheduler
// fed through the observer chain.
func TestServeAdminMetricsEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	srv, err := pnsched.Serve(ctx, fastServeSpec(t),
		pnsched.WithAdminAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	addr := srv.Addr().String()
	if srv.AdminAddr() == nil {
		t.Fatal("AdminAddr() = nil with WithAdminAddr set")
	}
	base := "http://" + srv.AdminAddr().String()

	// Healthz answers before any worker connects.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", resp.StatusCode)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := pnsched.RunWorker(ctx, addr, pnsched.WorkerConfig{
			Name: "only", Rate: 100, TimeScale: 2e-4,
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("worker: %v", err)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Workers != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	tasks := pnsched.GenerateTasks(80, pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(7))
	srv.Submit(tasks)

	// Mid-run scrape: whatever instant it lands on, the output must be
	// valid exposition format with consistent counters.
	mid := parsePrometheus(t, scrapeMetrics(t, base))
	if got := mid["pnsched_tasks_submitted_total"]; got != float64(len(tasks)) {
		t.Errorf("mid-run submitted_total = %v, want %d", got, len(tasks))
	}
	if got := mid["pnsched_workers"]; got != 1 {
		t.Errorf("mid-run workers gauge = %v, want 1", got)
	}

	if err := srv.Wait(30 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	snap := srv.Snapshot()
	final := parsePrometheus(t, scrapeMetrics(t, base))

	// Counters agree with the in-process snapshot.
	for name, want := range map[string]float64{
		"pnsched_tasks_submitted_total":                 float64(snap.Submitted),
		"pnsched_tasks_completed_total":                 float64(snap.Completed),
		"pnsched_tasks_reissued_total":                  float64(snap.Reissued),
		"pnsched_batches_total":                         float64(snap.Batches),
		"pnsched_pending_tasks":                         0,
		"pnsched_running_tasks":                         0,
		`pnsched_worker_tasks_completed{worker="only"}`: float64(len(tasks)),
	} {
		if got := final[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// The dispatch-latency histogram saw one observation per completion,
	// with cumulative buckets ending at the count.
	count := final["pnsched_dispatch_latency_seconds_count"]
	if count != float64(snap.Completed) {
		t.Errorf("dispatch latency count = %v, want %d completions", count, snap.Completed)
	}
	if inf := final[`pnsched_dispatch_latency_seconds_bucket{le="+Inf"}`]; inf != count {
		t.Errorf("dispatch latency +Inf bucket %v != count %v", inf, count)
	}
	buckets := 0
	for series, v := range final {
		if strings.HasPrefix(series, "pnsched_dispatch_latency_seconds_bucket{") {
			buckets++
			if v < 0 || v > count {
				t.Errorf("bucket %s = %v outside [0, count %v]", series, v, count)
			}
		}
	}
	if buckets < 2 {
		t.Errorf("dispatch latency rendered %d buckets, want the full layout", buckets)
	}

	// The GA counters flowed from the scheduler through the observer
	// chain into the same registry.
	if runs := final["pnsched_ga_runs_total"]; runs != float64(snap.Batches) {
		t.Errorf("ga_runs_total = %v, want one per batch (%d)", runs, snap.Batches)
	}
	for _, name := range []string{
		"pnsched_ga_generations_total",
		"pnsched_ga_evaluations_total",
		"pnsched_ga_genes_evaluated_total",
		"pnsched_ga_spent_seconds_total",
	} {
		if final[name] <= 0 {
			t.Errorf("%s = %v after a GA run, want > 0", name, final[name])
		}
	}

	// pprof is mounted alongside.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/: status %d", resp.StatusCode)
	}

	cancel()
	wg.Wait()
}

// TestMetricsAgreeWithSnapshotAcrossRestart finishes two jobs on a
// journaled dispatcher, restarts it on the same directory, and requires
// the restarted /metrics to read the task, batch and job counts its
// Snapshot reports: each series is a read of the one restored state.
func TestMetricsAgreeWithSnapshotAcrossRestart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := []pnsched.JobsOption{pnsched.WithJobsJournal(t.TempDir()), pnsched.WithAdminAddr("127.0.0.1:0")}

	svc1, err := pnsched.ServeJobs(ctx, opts...)
	if err != nil {
		t.Fatalf("ServeJobs: %v", err)
	}
	var wg sync.WaitGroup
	wctx, wcancel := context.WithCancel(ctx)
	startJobWorker(wctx, t, &wg, svc1.Addr().String(), "only")
	for seed := uint64(1); seed <= 2; seed++ {
		info, err := svc1.Submit(pnsched.JobRequest{Scheduler: pnsched.MustSpec("MX"), Tasks: jobWorkload(seed)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if info, err := svc1.WaitJob(info.ID, 30*time.Second); err != nil || info.State != pnsched.JobDone {
			t.Fatalf("job %d: %+v, %v; want done", seed, info, err)
		}
	}
	wcancel()
	wg.Wait()
	if err := svc1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	svc2, err := pnsched.ServeJobs(ctx, opts...)
	if err != nil {
		t.Fatalf("ServeJobs (restart): %v", err)
	}
	defer svc2.Close()
	snap := svc2.Snapshot()
	if snap.Completed != 24 || snap.Jobs == nil || snap.Jobs.Done != 2 {
		t.Fatalf("restarted snapshot %+v, want 24 tasks and 2 jobs done", snap)
	}
	got := parsePrometheus(t, scrapeMetrics(t, "http://"+svc2.AdminAddr().String()))
	for name, want := range map[string]int{
		"pnsched_tasks_submitted_total":                  snap.Submitted,
		"pnsched_tasks_completed_total":                  snap.Completed,
		"pnsched_tasks_reissued_total":                   snap.Reissued,
		"pnsched_batches_total":                          snap.Batches,
		"pnsched_jobs_submitted_total":                   2,
		`pnsched_jobs_finished_total{state="done"}`:      snap.Jobs.Done,
		`pnsched_jobs_finished_total{state="failed"}`:    snap.Jobs.Failed,
		`pnsched_jobs_finished_total{state="cancelled"}`: snap.Jobs.Cancelled,
	} {
		if got[name] != float64(want) {
			t.Errorf("after restart %s = %v, want %d", name, got[name], want)
		}
	}
}

// TestServeDecisionTraces runs a live workload and retrieves the
// per-batch decision traces both in-process (Server.Traces) and over
// the wire (FetchTraces, protocol 1.2): the two views must agree, and
// every GA decision must carry its generation-best curve and budget
// ledger.
func TestServeDecisionTraces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	srv, err := pnsched.Serve(ctx, fastServeSpec(t))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := pnsched.RunWorker(ctx, addr, pnsched.WorkerConfig{
			Name: "only", Rate: 100, TimeScale: 2e-4,
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("worker: %v", err)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Workers != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	tasks := pnsched.GenerateTasks(60, pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(7))
	srv.Submit(tasks)
	if err := srv.Wait(30 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	local := srv.Traces()
	if len(local) == 0 {
		t.Fatal("Server.Traces() empty after a completed run")
	}
	total := 0
	for _, tr := range local {
		total += tr.Tasks
		if tr.Scheduler != "PN" {
			t.Errorf("trace names scheduler %q, want PN", tr.Scheduler)
		}
		if tr.Generations == 0 || tr.Evaluations == 0 || tr.Genes == 0 {
			t.Errorf("GA ledger empty in trace %d: %+v", tr.Invocation, tr)
		}
		if len(tr.Curve) == 0 {
			t.Errorf("trace %d has no generation-best curve", tr.Invocation)
			continue
		}
		for i := 1; i < len(tr.Curve); i++ {
			if tr.Curve[i].Makespan >= tr.Curve[i-1].Makespan {
				t.Errorf("trace %d curve not strictly improving at %d: %+v",
					tr.Invocation, i, tr.Curve)
				break
			}
			if tr.Curve[i].Generation <= tr.Curve[i-1].Generation {
				t.Errorf("trace %d curve generations not increasing: %+v", tr.Invocation, tr.Curve)
				break
			}
		}
		if tr.BestMakespan != tr.Curve[len(tr.Curve)-1].Makespan {
			t.Errorf("trace %d BestMakespan %v != last curve point %v",
				tr.Invocation, tr.BestMakespan, tr.Curve[len(tr.Curve)-1].Makespan)
		}
	}
	if total != len(tasks) {
		t.Errorf("traces account for %d tasks, want %d", total, len(tasks))
	}

	remote, err := pnsched.FetchTraces(ctx, addr)
	if err != nil {
		t.Fatalf("FetchTraces: %v", err)
	}
	if fmt.Sprintf("%+v", remote) != fmt.Sprintf("%+v", local) {
		t.Errorf("wire traces disagree with in-process:\n got %+v\nwant %+v", remote, local)
	}

	cancel()
	wg.Wait()
}

// poolSeries are the series the worker pool exports — under Serve and
// ServeJobs alike, since both sit on the one pool.
var poolSeries = []string{
	"pnsched_tasks_submitted_total",
	"pnsched_tasks_completed_total",
	"pnsched_tasks_reissued_total",
	"pnsched_tasks_dispatched_total",
	"pnsched_batches_total",
	"pnsched_protocol_decode_errors_total",
	"pnsched_dispatch_latency_seconds",
	"pnsched_batch_wall_seconds",
	"pnsched_pending_tasks",
	"pnsched_running_tasks",
	"pnsched_workers",
	"pnsched_worker_believed_rate_mflops",
	"pnsched_worker_tasks_completed",
	"pnsched_events_published_total",
	"pnsched_events_dropped_total",
	"pnsched_watcher_queue_depth",
	"pnsched_watcher_dropped_total",
}

// scrapeFamilies returns each family's "TYPE / HELP" as /metrics
// declares it, failing on a family declared twice.
func scrapeFamilies(t *testing.T, base string) map[string]string {
	t.Helper()
	help := map[string]string{}
	fams := map[string]string{}
	for _, line := range strings.Split(scrapeMetrics(t, base), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if _, dup := fams[name]; dup {
				t.Errorf("%s: family %s rendered twice", base, name)
			}
			fams[name] = typ + " / " + help[name]
		}
	}
	return fams
}

// TestPoolSeriesIdenticalUnderBothServices scrapes a Serve and a
// ServeJobs and requires one set of pool-level series: same names, TYPE
// and HELP from both, pnsched_jobs_* only on the dispatcher and never a
// second name for a pool-level series.
func TestPoolSeriesIdenticalUnderBothServices(t *testing.T) {
	ctx := context.Background()
	srv, err := pnsched.Serve(ctx, fastServeSpec(t), pnsched.WithAdminAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	svc, err := pnsched.ServeJobs(ctx, pnsched.WithAdminAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("ServeJobs: %v", err)
	}
	defer svc.Close()
	serve := scrapeFamilies(t, "http://"+srv.AdminAddr().String())
	jobs := scrapeFamilies(t, "http://"+svc.AdminAddr().String())

	for _, name := range poolSeries {
		if serve[name] == "" {
			t.Errorf("Serve does not export the pool-level series %s", name)
		}
	}
	for name, decl := range serve {
		if strings.HasPrefix(name, "pnsched_jobs_") {
			t.Errorf("Serve exports the job-level series %s", name)
		} else if jobs[name] != decl {
			t.Errorf("%s: Serve declares %q, ServeJobs %q", name, decl, jobs[name])
		}
	}
	for name := range jobs {
		rest, ok := strings.CutPrefix(name, "pnsched_jobs_")
		if !ok {
			if _, shared := serve[name]; !shared {
				t.Errorf("ServeJobs exports %s, which is neither job-level nor exported by Serve", name)
			}
			continue
		}
		if _, dup := serve["pnsched_"+rest]; dup {
			t.Errorf("%s is a second name for the pool-level pnsched_%s", name, rest)
		}
	}
	for _, name := range []string{
		"pnsched_jobs_journal_records_total",
		"pnsched_jobs_journal_bytes_total",
		"pnsched_jobs_journal_snapshots_total",
	} {
		if jobs[name] == "" {
			t.Errorf("ServeJobs no longer exports %s", name)
		}
	}
}
