// Package core implements the paper's contribution: the PN dynamic
// genetic-algorithm scheduler for heterogeneous tasks on heterogeneous
// processors (§3). It is one scheduler type, PN, in three
// configurations — the paper's PN, PN on an island-model ring, and the
// ZO comparator (Zomaya & Teh's dynamic GA scheduler converted to
// heterogeneous rates, §4.1) — that differ in data only. Every batch
// decision is one GA run: a Problem snapshot, one lane per population
// (the evaluator stack, the §3.5 rebalancer, the gene ledger, the
// lowest makespan so far and the §3.4 budget predicate), driven by
// ga.Run (Evolve) or island.Run (EvolveIsland) and closed by one
// roll-up of the ledger into EvolveStats and the EvolveDone event.
//
// Batches are sized by one rule: Config.InitialBatch is the batch
// size, exactly as configured, whenever the batch is fixed
// (Config.FixedBatch, always for ZO) and until idle-time history
// exists; after that the §3.7 dynamic rule sizes each batch, and
// DefaultMaxBatch caps that rule only.
//
// A schedule is encoded as a permutation chromosome (§3.1): the
// positions 0…H−1 of the H tasks in the batch (Problem.Batch), not
// their IDs, interleaved with M−1 delimiter symbols partitioning the
// permutation into the M per-processor queues, giving chromosomes of
// length H + M − 1. A task's ID never enters the GA, so a batch may
// carry any IDs, repeated or sparse.
//
// One deliberate deviation from the paper's notation: the paper writes
// every delimiter as −1, but cycle crossover requires chromosomes to be
// permutations of distinct symbols, so we use distinct negative ids
// −1 … −(M−1). Decoding treats any negative symbol as a queue boundary,
// so schedule semantics are unchanged.
//
// Fitness is evaluated incrementally: IncrementalEvaluator caches each
// individual's per-processor completion times and re-derives only the
// queues a swap or §3.5 rebalance move touched, returning bit-identical
// values to a from-scratch evaluation (see its documentation).
package core

import (
	"fmt"

	"pnsched/internal/ga"
)

// Delimiter returns the k-th delimiter symbol (k in 1..M-1).
func Delimiter(k int) int { return -k }

// Decode splits a chromosome back into m per-processor queues of batch
// positions. Any negative symbol is a boundary; the i-th segment (in
// chromosome order) becomes processor i's queue. It panics if the
// chromosome contains more than m−1 delimiters — that chromosome was
// built for a different cluster size and indicates a programming
// error.
func Decode(c ga.Chromosome, m int) [][]int {
	queues := make([][]int, m)
	j := 0
	for _, sym := range c {
		if sym < 0 {
			j++
			if j >= m {
				panic(fmt.Sprintf("core: chromosome has too many delimiters for %d processors", m))
			}
			continue
		}
		queues[j] = append(queues[j], sym)
	}
	return queues
}

// ChromosomeLen returns the expected chromosome length for a batch of h
// tasks on m processors: H + M − 1.
func ChromosomeLen(h, m int) int { return h + m - 1 }
