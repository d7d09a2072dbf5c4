// Package pnsched is the public library API of this reproduction of
// "Dynamic task scheduling using genetic algorithms for heterogeneous
// distributed computing" (Page & Naughton, IPPS/IPDPS 2005). It is the
// single construction and execution surface for every scheduler and
// runtime in the repo, in three parts:
//
// # Scheduler registry
//
// Every scheduler self-registers under a case-insensitive name:
// the paper's seven comparators (EF, LL, RR, ZO, PN, MM, MX), the
// island-model variant PN-ISLAND, and the Maheswaran et al. heuristics
// of the extended study (MET, OLB, KPB, SUF). Names lists them, New
// constructs one from a Spec, and Register adds external schedulers —
// reachable from every surface that consumes specs (pnsim -sched,
// scenario JSON files, the experiments harness).
//
// # Functional-options Spec
//
// Spec subsumes the GA configuration (core.Config), the island-model
// setup, and the scheduler block of scenario JSON files; it validates
// centrally and round-trips through encoding/json, so the same value
// backs library calls, CLI flags and scenario files. Build one with
// NewSpec and With* options (see the Run example).
//
// # Unified run API
//
// Run drives a Workload (cluster + network + tasks; GenerateWorkload
// builds the paper's synthetic systems) through the discrete-event
// simulator and returns its metrics — the Run example is a complete
// program. A typed Observer — batch decided, generation
// best-makespan, island migration, dispatch, budget stop, worker
// lifecycle — watches any run; the same interface is emitted by the
// live TCP runtime (internal/dist), so instrumentation written against
// it works unchanged on simulated and real deployments.
//
// # Live serving and remote observation
//
// Serve is Run's live counterpart: the same Spec (and the same
// Validate), but scheduling real workers over TCP instead of simulated
// processors. Workers connect with RunWorker (or the pnworker binary,
// Linpack-rated); tasks go in with Submit, which returns an error and
// queues nothing when a task has a negative ID or a negative, NaN or
// infinite size, and the run is tracked with Wait, Stats and Snapshot.
// The Serve example drives a full run against an in-process worker.
//
// The typed Observer protocol crosses the wire too: Watch subscribes
// to a live server's event stream and replays it into an Observer,
// event for event, in server publication order — so instrumentation
// written for Run works unchanged against a remote deployment
// (pnserver -watch is exactly this; the Watch example is the library
// form). A slow watcher costs the server nothing: frames that
// overflow its queue, fixed at 256 frames, are dropped and counted
// (Watcher.Dropped), never blocking the scheduler — and a watcher that
// subscribes mid-run first replays the server's last 64 frames before
// going live. The frame grammar, version negotiation and replay
// semantics are specified in docs/wire-protocol.md. FetchStats
// (pnserver -stats) retrieves a point-in-time ServerSnapshot — queue
// depths, per-worker counts, dispatch-latency quantiles — from any
// live server.
//
// ServeJobs is the multi-tenant form of the same service: a dispatcher
// that queues whole jobs (workload + Spec + tenant + priority), admits
// them under a policy and leases the connected workers to the running
// ones, optionally journaling its state (WithJobsJournal). Serve and
// ServeJobs sit on one worker pool and share one surface: every
// ServeOption — listener, logging, observer, smoothing, backlog, event
// buffers, admin endpoint — is accepted by both, and ServeJobs adds its
// job-only JobsOptions on top.
//
// Every served run is instrumented: task counters, queue-depth gauges,
// dispatch-latency histograms, per-watcher drop accounting, and the
// GA's own work ledger (generations, evaluations, genes scanned,
// budget granted vs. spent) accumulate in a zero-dependency registry
// (internal/telemetry) as the pnsched_* series — the same names under
// either service; ServeJobs adds the job-level pnsched_jobs_* ones.
// WithAdminAddr exposes them over HTTP in
// Prometheus text exposition format at /metrics, next to /healthz
// (503 once a journal write has failed) and
// /debug/pprof/ — the ExampleServe_adminEndpoint example scrapes a
// live run; `pnserver -admin :9090` is the CLI form. The server also
// retains a bounded ring of per-batch decision traces (DecisionTrace):
// each batch's generation-best makespan curve, §3.4 budget ledger and
// wall time, readable in-process via Server.Traces or over the wire
// via FetchTraces (pnserver -trace). Serving logs are structured
// log/slog records; WithServeLog supplies the logger.
//
// Underneath sit the internal packages: the GA engine with incremental
// fitness evaluation (internal/ga, internal/core), the parallel island
// model (internal/island), the discrete-event simulator
// (internal/sim), the one live runtime — a worker-pool core in
// internal/dist that Serve (one workload) and ServeJobs (internal/jobs,
// many tenants' jobs) both sit on as thin owners — and the
// figure-regeneration harness (internal/experiments). See
// README.md for the layout and performance notes, and
// docs/wire-protocol.md for the wire protocol. The runnable entry
// points are:
//
//	cmd/pnbench    — regenerate paper figures 3–11 and the
//	                 supplementary experiments; -json writes
//	                 machine-readable results
//	cmd/pnsim      — run a single scheduling simulation
//	                 (-sched <name> from the registry, -scenario file)
//	cmd/pnworkload — generate task-set files
//	cmd/pnserver   — live TCP scheduling server
//	cmd/pnworker   — live worker client (Linpack-rated)
//	examples/*     — annotated programs against the public API
//
// Build and test with the Makefile (the GitHub Actions workflow calls
// its targets and nothing else): go build, vet + gofmt, the apicheck
// layering gate, go test -race, and a benchmark smoke pass.
//
// Contributing: the architectural invariants — the import DAG, the
// no-hidden-entropy rule in the GA core, the nothing-blocks-under-a-
// mutex rule (which covers every function named …Locked), slog
// hygiene, and explicit json tags on
// wire structs — are machine-checked by the pnanalyze suite in tools/
// (run `make analyze`; docs/static-analysis.md lists each invariant
// with its rationale). New code must pass the suite; a finding is
// waived only by a reviewed //pnanalyze:ok comment explaining why the
// invariant holds anyway.
package pnsched
