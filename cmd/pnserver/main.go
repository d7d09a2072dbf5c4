// Command pnserver runs the dedicated scheduling processor of the
// paper's §3 as a real TCP service: it loads (or generates) a workload,
// waits for pnworker clients to connect, schedules batches with the PN
// genetic algorithm, and reports progress until every task completes.
// With -watch it is instead a remote observer: it subscribes to a
// running pnserver's event stream (docs/wire-protocol.md) and prints
// every scheduling event as it happens, plus a periodic stats line.
// With -stats it requests one operational snapshot — queue depths,
// per-worker counts, dispatch-latency quantiles — and exits. With
// -trace it fetches the server's retained per-batch decision traces
// and prints each batch's generation-best makespan curve and §3.4
// budget ledger. With -admin the serving process additionally exposes
// an HTTP admin endpoint (/metrics in Prometheus text format,
// /healthz, /debug/pprof/).
//
// With -jobs it instead runs the multi-tenant job dispatcher
// (protocol 1.3): a persistent service with no workload of its own
// that accepts jobs over the wire — each carrying its own scheduler
// spec, tenant and priority — admits them under -policy, and leases
// the connected workers to the active job. Jobs are submitted and
// managed with the pnjobs command. With -journal the dispatcher's job
// state is durable: transitions are journaled under the given
// directory before they are acknowledged, and a restart pointed at
// the same directory replays them (docs/job-journal.md).
//
// Usage:
//
//	pnserver -listen :9000 -admin :9090 -tasks 500 &
//	pnworker -connect localhost:9000 -rate 100 &
//	pnworker -connect localhost:9000 -rate 400 &
//	pnserver -watch localhost:9000
//	pnserver -stats localhost:9000
//	pnserver -trace localhost:9000
//	curl localhost:9090/metrics
//	pnserver -schedulers
//
//	pnserver -jobs -listen :9000 -policy fair -weights 'gold=3,free=1' -journal /var/lib/pnsched &
//	pnworker -connect localhost:9000 -rate 100 &
//	pnjobs -addr localhost:9000 submit -tenant gold -tasks 200 -wait
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"pnsched"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:9000", "address to listen on")
		admin    = flag.String("admin", "", "serve the HTTP admin endpoint (/metrics, /healthz, /debug/pprof/) on this address")
		watch    = flag.String("watch", "", "watch a running server's event stream at this address instead of serving")
		stats    = flag.String("stats", "", "print a running server's stats snapshot from this address and exit")
		trace    = flag.String("trace", "", "print a running server's per-batch decision traces from this address and exit")
		listSch  = flag.Bool("schedulers", false, "list the registered schedulers and exit")
		nTasks   = flag.Int("tasks", 500, "tasks to generate (ignored with -workload)")
		wlFile   = flag.String("workload", "", "load tasks from a pnworkload JSON file")
		batch    = flag.Int("batch", pnsched.DefaultBatchSize, "initial/fixed batch size")
		dynamic  = flag.Bool("dynamic-batch", true, "size batches dynamically (§3.7)")
		gens     = flag.Int("generations", 1000, "GA generations per batch")
		islands  = flag.Int("islands", 0, "schedule with the island-model GA across this many islands (0: sequential PN, -1: one island per CPU)")
		interval = flag.Int("migration-interval", 0, "generations between island migrations (0: default)")
		migrants = flag.Int("migrants", 0, "elites exchanged per island migration (0: default)")
		seed     = flag.Uint64("seed", 1, "random seed")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")

		jobsMode  = flag.Bool("jobs", false, "run the multi-tenant job dispatcher instead of serving one workload")
		policy    = flag.String("policy", "fifo", "job admission policy: fifo, priority, or fair (with -jobs)")
		weights   = flag.String("weights", "", "fair-share tenant weights as tenant=weight,... (with -jobs -policy fair)")
		maxActive = flag.Int("max-active", 0, "concurrently running jobs; 0 keeps the default of 1 (with -jobs)")
		retry     = flag.Int("retry-budget", 0, "default per-job task-reissue budget; 0 keeps the package default (with -jobs)")
		journal   = flag.String("journal", "", "journal job state under this directory and replay it on restart (with -jobs)")
	)
	flag.Parse()

	if *listSch {
		pnsched.WriteSchedulerTable(os.Stdout)
		return
	}
	if *stats != "" {
		statsMain(*stats)
		return
	}
	if *trace != "" {
		traceMain(*trace)
		return
	}
	if *watch != "" {
		watchMain(*watch)
		return
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := modeConflict(*jobsMode, set); err != nil {
		fmt.Fprintf(os.Stderr, "pnserver: %v (pnserver -h lists the flags)\n", err)
		os.Exit(2)
	}

	// Structured, levelled logging: -quiet keeps warnings and errors
	// but drops the per-batch / per-worker progress records.
	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	// The lifecycle records — listening, run complete, shutting down —
	// survive -quiet: they are the run's summary, not progress.
	life := logger
	if *quiet {
		life = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	ctx, cancelSignal := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancelSignal()
	// What both services take: every ServeOption is a JobsOption too.
	common := []pnsched.ServeOption{
		pnsched.WithListenAddr(*listen),
		pnsched.WithServeLog(logger),
	}
	if *admin != "" {
		common = append(common, pnsched.WithAdminAddr(*admin))
	}
	if *jobsMode {
		jobsMain(ctx, life, common, *policy, *weights, *journal, *maxActive, *retry)
		return
	}

	var tasks []pnsched.Task
	if *wlFile != "" {
		f, err := os.Open(*wlFile)
		if err != nil {
			fatal(err)
		}
		tasks, err = pnsched.ReadTasks(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		tasks = pnsched.GenerateTasks(*nTasks,
			pnsched.Uniform{Lo: 10, Hi: 1000}, pnsched.NewRNG(*seed))
	}
	if len(tasks) == 0 {
		fatal(fmt.Errorf("empty workload: nothing to schedule"))
	}

	// Lower the flags onto the same public Spec scenario files and
	// library callers use; -islands != 0 selects the island-model
	// variant from the registry.
	opts := []pnsched.Option{
		pnsched.WithGenerations(*gens),
		pnsched.WithBatch(*batch),
		pnsched.WithDynamicBatch(*dynamic),
		pnsched.WithRNG(pnsched.NewRNG(*seed).Stream(1)),
	}
	name := "PN"
	if *islands != 0 {
		name = "PN-ISLAND"
		if *islands > 0 {
			opts = append(opts, pnsched.WithIslands(*islands))
		}
		if *interval > 0 {
			opts = append(opts, pnsched.WithMigrationInterval(*interval))
		}
		if *migrants > 0 {
			opts = append(opts, pnsched.WithMigrants(*migrants))
		}
	}
	spec, err := pnsched.NewSpec(name, opts...)
	if err != nil {
		fatal(err)
	}
	srv, err := pnsched.Serve(ctx, spec, common...)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	listening(life, "pnserver listening", srv.Addr(), srv.AdminAddr(), "tasks", len(tasks))

	if err := srv.Submit(tasks); err != nil {
		fatal(err)
	}

	// Progress loop.
	start := time.Now()
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	done := make(chan error, 1)
	go func() { done <- srv.Wait(0) }()
	for {
		select {
		case err := <-done:
			if err != nil && ctx.Err() == nil {
				fatal(err)
			}
			st := srv.Stats()
			life.Info("pnserver run complete",
				"completed", st.Completed, "submitted", st.Submitted,
				"reissued", st.Reissued, "workers", st.Workers,
				"elapsed", time.Since(start).Round(time.Millisecond))
			return
		case <-tick.C:
			st := srv.Stats()
			slog.Info("pnserver progress",
				"completed", st.Completed, "submitted", st.Submitted,
				"reissued", st.Reissued, "workers", st.Workers, "watchers", st.Watchers)
		}
	}
}

// modeFlags are the flags only one of the two serving modes reads, each
// with whether that mode is -jobs. Setting one in the other mode is
// refused rather than dropped: an operator who passes -journal without
// -jobs believes job state is durable.
var modeFlags = map[string]bool{
	"policy": true, "weights": true, "max-active": true, "retry-budget": true, "journal": true,

	"tasks": false, "workload": false, "batch": false, "dynamic-batch": false,
	"generations": false, "islands": false, "migration-interval": false,
	"migrants": false, "seed": false,
}

// modeConflict names the first of the flags given on the command line
// that the chosen serving mode would ignore.
func modeConflict(jobs bool, set []string) error {
	for _, name := range set {
		if needsJobs, ok := modeFlags[name]; ok && needsJobs != jobs {
			if needsJobs {
				return fmt.Errorf("-%s is only read by the job dispatcher; add -jobs", name)
			}
			return fmt.Errorf("-%s is not read with -jobs: jobs bring their own workload and scheduler spec", name)
		}
	}
	return nil
}

// listening logs a service's one start-up record.
func listening(life *slog.Logger, msg string, addr, admin net.Addr, args ...any) {
	args = append([]any{"addr", addr}, args...)
	if admin != nil {
		args = append(args, "admin", admin)
	}
	life.Info(msg, args...)
}

// jobsMain runs the multi-tenant job dispatcher until interrupted:
// workers connect exactly as they do to the single-workload server,
// and jobs arrive over the wire from pnjobs clients.
func jobsMain(ctx context.Context, life *slog.Logger, common []pnsched.ServeOption, policy, weights, journal string, maxActive, retry int) {
	opts := []pnsched.JobsOption{pnsched.WithAdmissionPolicy(pnsched.AdmissionPolicy(policy))}
	for _, o := range common {
		opts = append(opts, o)
	}
	if weights != "" {
		for _, pair := range strings.Split(weights, ",") {
			tenant, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				fatal(fmt.Errorf("-weights %q: want tenant=weight,...", weights))
			}
			w, err := strconv.ParseFloat(val, 64)
			if err != nil {
				fatal(fmt.Errorf("-weights %q: %v", weights, err))
			}
			opts = append(opts, pnsched.WithTenantWeight(tenant, w))
		}
	}
	opts = append(opts, pnsched.WithMaxActiveJobs(maxActive), pnsched.WithJobRetryBudget(retry))
	if journal != "" {
		opts = append(opts, pnsched.WithJobsJournal(journal))
	}

	svc, err := pnsched.ServeJobs(ctx, opts...)
	if err != nil {
		fatal(err)
	}
	defer svc.Close()
	listening(life, "pnserver job dispatcher listening", svc.Addr(), svc.AdminAddr(), "policy", policy)

	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			snap := svc.Snapshot()
			if j := snap.Jobs; j != nil {
				life.Info("pnserver dispatcher shutting down",
					"done", j.Done, "failed", j.Failed, "cancelled", j.Cancelled,
					"queued", j.Queued, "running", j.Running)
			}
			return
		case <-tick.C:
			snap := svc.Snapshot()
			if j := snap.Jobs; j != nil {
				slog.Info("dispatcher progress",
					"queued", j.Queued, "running", j.Running,
					"done", j.Done, "failed", j.Failed, "cancelled", j.Cancelled,
					"workers", len(snap.Workers), "tasks_running", snap.Running)
			}
		}
	}
}

// watchMain subscribes to a running server's event stream and prints
// every event until the server closes or the process is interrupted,
// with a stats snapshot line every few seconds.
func watchMain(addr string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	w, err := pnsched.Watch(ctx, addr, pnsched.ObserverFuncs{
		BatchDecided: func(e pnsched.BatchDecision) {
			slog.Info("batch decided", "invocation", e.Invocation, "scheduler", e.Scheduler,
				"tasks", e.Tasks, "workers", e.Procs, "cost", float64(e.Cost),
				"wall", float64(e.Wall), "at", float64(e.At))
		},
		GenerationBest: func(e pnsched.GenerationBest) {
			slog.Info("generation best", "generation", e.Generation, "makespan", float64(e.Makespan))
		},
		Migration: func(e pnsched.MigrationEvent) {
			slog.Info("island migration", "round", e.Round, "migrants", e.Migrants)
		},
		Dispatch: func(e pnsched.DispatchEvent) {
			slog.Info("dispatch", "task", e.Task, "worker", e.Proc, "at", float64(e.At))
		},
		BudgetStop: func(e pnsched.BudgetStopEvent) {
			slog.Info("budget stop", "generation", e.Generation,
				"budget", float64(e.Budget), "spent", float64(e.Spent))
		},
		EvolveDone: func(e pnsched.EvolveDoneEvent) {
			slog.Info("evolve done", "generations", e.Generations, "evaluations", e.Evaluations,
				"genes", e.Genes, "spent", float64(e.Spent), "best_makespan", float64(e.BestMakespan),
				"reason", e.Reason)
		},
		WorkerJoined: func(e pnsched.WorkerJoinedEvent) {
			slog.Info("worker joined", "worker", e.Name, "rate", float64(e.Rate), "workers", e.Workers)
		},
		WorkerLeft: func(e pnsched.WorkerLeftEvent) {
			slog.Info("worker left", "worker", e.Name, "reissued", e.Reissued, "workers", e.Workers)
		},
		JobQueued: func(e pnsched.JobQueuedEvent) {
			slog.Info("job queued", "job", e.ID, "tenant", e.Tenant,
				"priority", e.Priority, "tasks", e.Tasks, "queued", e.Queued)
		},
		JobStarted: func(e pnsched.JobStartedEvent) {
			slog.Info("job started", "job", e.ID, "tenant", e.Tenant,
				"workers", e.Workers, "waited", float64(e.Waited))
		},
		JobDone: func(e pnsched.JobDoneEvent) {
			slog.Info("job "+e.State, "job", e.ID, "tenant", e.Tenant,
				"completed", e.Completed, "retries", e.Retries, "duration", float64(e.Duration))
		},
	})
	if err != nil {
		fatal(err)
	}
	slog.Info("watching server", "addr", addr)

	// Periodic stats line alongside the event stream. Older servers
	// without the stats message just don't get the line.
	statsTick := time.NewTicker(5 * time.Second)
	defer statsTick.Stop()
	go func() {
		for range statsTick.C {
			snap, err := pnsched.FetchStats(ctx, addr)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				continue
			}
			args := []any{
				"completed", snap.Completed, "submitted", snap.Submitted,
				"pending", snap.Pending, "running", snap.Running,
				"workers", len(snap.Workers), "p50_dispatch", time.Duration(float64(snap.Latency.P50) * float64(time.Second)),
				"uptime", time.Duration(float64(snap.Uptime) * float64(time.Second)).Round(time.Second),
			}
			if j := snap.Jobs; j != nil {
				args = append(args, "jobs_queued", j.Queued, "jobs_running", j.Running, "jobs_done", j.Done)
			}
			slog.Info("server stats", args...)
		}
	}()

	if err := w.Wait(); err != nil && ctx.Err() == nil {
		fatal(err)
	}
	slog.Info("watch ended", "frames", w.Frames(), "dropped", w.Dropped())
}

// traceMain fetches the server's retained per-batch decision traces
// and prints, for each batch, the decision summary, the §3.4 budget
// ledger, and the generation-best makespan curve.
func traceMain(addr string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	traces, err := pnsched.FetchTraces(ctx, addr)
	if err != nil {
		fatal(err)
	}
	if len(traces) == 0 {
		fmt.Println("no decision traces retained yet")
		return
	}
	for _, t := range traces {
		fmt.Printf("batch %d: %s placed %d tasks over %d workers (cost %v, wall %v)\n",
			t.Invocation, t.Scheduler, t.Tasks, t.Procs, t.Cost,
			time.Duration(float64(t.Wall)*float64(time.Second)).Round(time.Microsecond))
		if t.Generations > 0 || t.Evaluations > 0 {
			fmt.Printf("  GA: %d generations, %d evaluations (%d genes, %d rebalance), stopped: %s\n",
				t.Generations, t.Evaluations, t.Genes, t.RebalanceEvals, t.Reason)
			fmt.Printf("  budget: %v granted, %v spent", t.Budget, t.Spent)
			if t.Migrations > 0 {
				fmt.Printf(", %d migration rounds", t.Migrations)
			}
			fmt.Println()
		}
		if len(t.Curve) > 0 {
			fmt.Printf("  generation-best curve (%d improvements):\n", len(t.Curve))
			for _, p := range t.Curve {
				fmt.Printf("    gen %4d  makespan %v\n", p.Generation, p.Makespan)
			}
		}
	}
}

// statsMain requests one stats snapshot from a running server and
// prints it.
func statsMain(addr string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	snap, err := pnsched.FetchStats(ctx, addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("server %s up %v\n", addr, time.Duration(float64(snap.Uptime)*float64(time.Second)).Round(time.Millisecond))
	fmt.Printf("tasks: %d submitted, %d completed, %d reissued, %d pending, %d running (%d batches)\n",
		snap.Submitted, snap.Completed, snap.Reissued, snap.Pending, snap.Running, snap.Batches)
	if j := snap.Jobs; j != nil {
		fmt.Printf("jobs: %d queued, %d running, %d done, %d failed, %d cancelled\n",
			j.Queued, j.Running, j.Done, j.Failed, j.Cancelled)
	}
	if snap.Latency.Samples > 0 {
		fmt.Printf("dispatch latency (last %d): p50 %v  p90 %v  p99 %v\n",
			snap.Latency.Samples, snap.Latency.P50, snap.Latency.P90, snap.Latency.P99)
	}
	fmt.Printf("workers: %d\n", len(snap.Workers))
	for _, w := range snap.Workers {
		fmt.Printf("  %-20s %8.1f Mflop/s  %4d running  %6d completed\n", w.Name, float64(w.Rate), w.Running, w.Completed)
	}
	fmt.Printf("watchers: %d\n", len(snap.Watchers))
	for i, w := range snap.Watchers {
		fmt.Printf("  #%d: %d queued, %d dropped\n", i, w.Queued, w.Dropped)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnserver:", err)
	os.Exit(1)
}
