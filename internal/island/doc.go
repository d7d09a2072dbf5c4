// Package island runs the paper's §3 micro-GA as a coarse-grained
// parallel island model: N independent populations ("islands") evolve
// concurrently, one goroutine and one derived random stream each, and
// every M generations the k fittest individuals of each island migrate
// to its neighbour around a ring. Migration is the only coupling, so
// the islands scale with the hardware while the exchanged elites keep
// the searches from diverging into N isolated runs — the standard way
// to buy more genetic search per wall-clock second for exactly this
// class of scheduler (cf. Pop & Cristea's parallel evolutionary DAG
// scheduling, PAPERS.md).
//
// # Architecture
//
// Run is bulk-synchronous. Each round, every live island advances up to
// Config.MigrationInterval generations of the sequential engine
// (ga.Engine — the same crossover/selection/mutation/rebalance loop the
// single-population scheduler uses; the island layer adds no new
// genetic operators). At the round barrier the coordinator evaluates
// the stop conditions and performs ring migration: island i clones its Config.Migrants fittest
// individuals (ga.Engine.Elites) into island i+1 mod N, where they
// replace the least-fit individuals (ga.Engine.Inject). All
// cross-island decisions happen at barriers in island order, never
// mid-round.
//
// # Stop conditions
//
// The two stopping conditions of the sequential engine are honoured
// per island: the generation cap and the Stop callback (the §3.4
// processor-went-idle condition, modelled as an evaluation budget).
// Either stops only its own island: each island runs on its own core
// and exhausts the budget at its own pace, and no island ever cancels
// another. Once an island stopped by its callback is observed at a
// round barrier, the remaining islands run on to their own stop
// conditions and the round loop ends. The overall Reason is the
// callback if any island stopped by it, the cap otherwise. Cancelling
// the caller's context stops every island promptly (each polls it once
// per generation) and reports the callback reason.
//
// # Determinism
//
// Island i draws every random decision from r.Stream(i+1), and rounds
// are barrier-synchronised, so a run that terminates by generation cap
// or Stop callback is fully deterministic for a fixed island count:
// same seed + same Islands → byte-identical best individual, whatever
// the goroutine scheduling. Determinism is per-N — changing the island
// count changes the stream assignment and the ring, and therefore the
// result, just as changing the population size changes the sequential
// engine's. Only a run aborted by cancelling its context stops at a
// wall-clock-dependent generation; the scheduler never cancels one.
package island
