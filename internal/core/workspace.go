package core

import (
	"sync"

	"pnsched/internal/ga"
)

// workspace is the memory of one sequential GA batch decision: the
// engine with its population slots and Scratch, the incremental
// evaluator with its slot caches, the §3.5 rebalancer with its scratch,
// the lane tying them together, and the list-seeding scratch the
// initial population is laid out in. Every buffer in it has the same
// shape from one decision to the next, so a decision run in a workspace
// that served one before allocates none of them: each part is rebound
// to the new Problem with its ledger zeroed and reuses whatever buffer
// is already large enough.
//
// A workspace serves one decision at a time. Evolve and PN.ScheduleBatch
// take one from workspaces for the length of a call and put it back on
// return; nothing a caller receives points into it (the best
// chromosome is a clone, the Assignment has its own arrays).
type workspace struct {
	eng   ga.Engine
	inc   IncrementalEvaluator
	rb    Rebalancer
	lane  lane
	seeds seeding
}

// workspaces holds the idle workspaces of the whole package, so every
// scheduler — including the live dispatcher's one per job — draws on
// the same few.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// resize returns s with length n, reusing its array when it has room;
// what the reused elements held is left for the caller to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
