// Package dist is the live counterpart of the discrete-event simulator:
// it runs the paper's §3 architecture — one dedicated scheduling
// processor assigning batches of independent tasks to heterogeneous
// client processors — as a real TCP service.
//
// There is one runtime, in two layers. The Pool is the scheduling
// processor's whole conversation with its client processors. core.go
// holds its decisions — registration, done accounting with §3.6
// smoothing, loss and reissue, §3.7 batch sizing and backlog pacing,
// committing a decision, the sched.State snapshot — as …Locked methods
// that take the time as a value and return what to do. pool.go alone
// touches connections, goroutines, channels, the condition variable and
// the wall clock. It queues assign frames while Pool.Mu is held, since
// a departing worker's channel is closed under it, and hangs up on a
// wedged worker only once Mu is free. The Pool decides nothing
// about whose work a worker does; that is its Owner's job, and there is
// one owner: the job dispatcher (internal/jobs), under one lock
// (Pool.Mu). It leases workers to jobs for pnsched.ServeJobs, and for
// pnsched.Serve holds one open job — an unbounded, never-finishing
// stream of work with one FCFS queue. Either way the pool registers the
// same pnsched_* series (metrics.go).
//
// Workers (started with RunWorker, or the pnworker binary on another
// machine) connect, declare a Linpack-style execution rating, and
// process the tasks they are assigned strictly in order. The pool
// drives any sched.Batch
// scheduler — in production the PN genetic algorithm (internal/core),
// or its parallel island-model configuration (core.NewPNIsland, opted into with
// pnserver's -islands flag) when the scheduling processor has cores to
// spare — over dynamic batches drawn from the FCFS queue of unscheduled tasks,
// exactly as the simulator does, but against the live machine set:
//
//   - Workers may join and leave at any time. Each batch is scheduled
//     against a snapshot of the workers connected at that instant.
//   - If a worker disconnects (crash, network partition, shutdown), every
//     task assigned to it that has not been reported complete is returned
//     to the unscheduled queue and rescheduled onto the surviving workers
//     — the paper's dynamic rescheduling; those tasks are counted as
//     reissued. Tasks scheduled onto a worker that vanished before
//     dispatch go back to the queue too, uncounted: they never left.
//   - Dispatch is paced by a per-worker backlog threshold: while every
//     worker holds DefaultBacklog (4) unfinished tasks, further
//     batches stay in the unscheduled queue. Work is therefore placed
//     shortly before it runs, against current beliefs and the current
//     machine set, rather than pinned to workers up front.
//   - Per-worker execution rates are exponentially smoothed (§3.6) from
//     observed task throughput, seeded with the claimed rating, so the
//     scheduler's beliefs track reality as traffic flows. Per-link
//     communication overheads Γc are estimated from the round-trip slack
//     of tasks dispatched to an otherwise idle worker.
//
// # Wire protocol
//
// The protocol is newline-delimited JSON over a single TCP connection
// per client ("JSON lines"): one object per line, bounded at 1 MiB per
// frame. A connection's first frame decides its role: a hello makes it
// a worker, a watch makes it an event subscriber, a stats or trace
// frame makes it a one-shot snapshot request, and anything else is
// offered to the owner (the dispatcher takes the job_* requests, unless
// it runs Serve's open job). docs/wire-protocol.md is the
// authoritative spec — grammar, versioning, delivery and replay
// semantics, each frame kind pinned by a committed golden file; this
// section is the summary.
//
// Worker → server, once, immediately after connecting:
//
//	{"type":"hello","name":"host-123","rate":314.2}
//
// Server → worker, one per scheduled batch that assigns this worker
// work (a batch too large for one frame goes out as consecutive ones);
// tasks are appended to the worker's FIFO queue in order:
//
//	{"type":"assign","tasks":[{"id":7,"size":420.5},{"id":12,"size":33}],"task":0,"elapsed":0}
//
// A task is task.Task on the wire as in memory and in the job journal:
// its tags write id and size and keep Arrival off the wire. CheckTask
// is the one task rule (id ≥ 0, size finite and ≥ 0), and it runs once
// at each way a task comes in: a worker's assign frames, the job
// dispatcher's Append, and the one place it installs a job, which
// Submit and journal replay both reach (internal/jobs). Frame
// validation checks framing and versions only; whatever a job_*
// request asks for, the dispatcher refuses in-band, in the words of
// the in-process call.
//
// Worker → server, after each task completes; elapsed is the processing
// time in simulated seconds (feeding §3.6 rate smoothing) and real the
// wall-clock processing seconds, whose ratio lets the server convert
// its round-trip slack measurements onto the simulated clock for the
// Γc link estimate:
//
//	{"type":"done","task":7,"elapsed":1.338,"real":0.0013}
//
// Unknown message types are ignored by both sides, so the protocol can
// grow. Either side detects the other's failure by connection error —
// there is no separate heartbeat; an idle TCP connection is cheap and a
// dead one surfaces on the next read or write.
//
// Lines are a byte stream: one write may carry several frames and one
// frame may span several reads. Each streaming writer — the pool's
// assign frames, a watcher's event frames, a worker's done reports —
// encodes what its queue holds into one buffer and flushes when the
// queue is empty (frameWriter, drain). Decoders accept any key order;
// the three per-task frames, assign, done and the dispatch event, are
// written in exactly json.Marshal's encoding by a hand encoder, and
// decodeWireMessage parses that encoding by hand in one pass, handing
// any other form to encoding/json (FuzzWireCodec holds the two paths
// together).
//
// # Event streaming
//
// A watch client (WatchEvents, pnsched.Watch, pnserver -watch)
// subscribes to the server's typed Observer events — the same ones an
// in-process observer sees. The handshake exchanges protocol versions
// (equal major required; a newer minor on either side is fine, its
// additions are skipped):
//
//	{"type":"watch","proto":{"major":1,"minor":0}}     // client → server
//	{"type":"welcome","proto":{"major":1,"minor":0}}   // server → client
//
// then the server streams versioned event frames, one per event, in
// publication order, identical for every subscriber:
//
//	{"type":"event","v":{"major":1,"minor":2},"seq":17,"kind":"dispatch","dispatch":{"proc":3,"task":77,"at":12.5}}
//
// Kinds are batch_decided, generation_best, migration, dispatch and
// budget_stop, plus — since protocol 1.1 — the worker lifecycle kinds
// worker_joined and worker_left, and — since 1.2 — evolve_done, the
// GA work ledger emitted once per evolution (generations, evaluations,
// budget granted and spent, stop reason); batch_decided also gained a
// wall field, the real seconds the decision took, which a watcher's
// observer receives like every other field. Each kind carries its
// payload under a kind-specific field, and the payload is the
// internal/observe event struct itself: its json tags are the payload
// grammar, so the Broadcaster publishes what it was handed and the
// watch client delivers what it decoded, with no wire-only copy in
// between. seq is the shared publication counter; a frame
// with a newer minor version decodes fine (unknown fields and kinds
// ignored — golden tests pin this), a different major is rejected at
// the handshake.
//
// Delivery to a subscriber goes through a bounded per-client send
// queue drained by its own writer goroutine: a slow or stalled watcher
// never back-pressures the scheduling loop. Frames that overflow the
// queue are dropped and counted, and the cumulative count rides on
// every subsequent frame's dropped field (so clients always know what
// they missed; gaps in seq say which frames). A subscriber arriving
// mid-run first replays the Broadcaster's ring of recent frames —
// contiguous in seq with the live stream that follows, never counted
// as dropped — so short-lived observers see how the run got where it
// is.
//
// # Stats snapshots and decision traces
//
// A connection whose first frame is {"type":"stats"} (protocol 1.1)
// receives one reply — the server's Snapshot, encoded by its own json
// tags: queue depths, task counters, per-worker believed rates and
// completions, per-watcher queue/drop counters, and dispatch-latency
// quantiles — and is then closed. FetchStats is the client side; pnserver -stats
// and the periodic line in pnserver -watch are its CLI surface.
//
// Its sibling {"type":"trace"} (protocol 1.2) returns the server's
// retained ring of per-batch decision traces — which tasks went where,
// the GA work ledger, and the generation-best makespan curve for each
// scheduling decision, each a Trace encoded by its own json tags.
// FetchTraces is the client side; pnserver -trace prints the curves.
//
// # Time scaling
//
// Workers simulate task execution by sleeping Size/Rate seconds scaled
// by WorkerConfig.TimeScale (real seconds per simulated processing
// second). TimeScale 1 is real time; 0.001 compresses hours of simulated
// work into seconds, which is how the integration tests and the
// examples/distributed demo run full workloads in milliseconds. A custom
// WorkerConfig.Execute hook replaces the sleep for real work.
package dist
