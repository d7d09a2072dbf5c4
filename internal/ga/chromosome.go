// Package ga implements the genetic-algorithm machinery of §2–3 of the
// paper: permutation chromosomes, weighted roulette-wheel selection,
// cycle crossover (Oliver, Smith & Holland), random swap mutation, and
// the generation loop
//
//	initialise population
//	do {
//	    crossover
//	    random mutation
//	    selection
//	} while (stopping conditions not met)
//	return best individual
//
// The package is problem-agnostic: it operates on permutations of
// arbitrary integer symbols and delegates fitness to an Evaluator. The
// scheduler-specific encoding, fitness and rebalancing heuristic live in
// internal/core.
//
// Memory: an Engine owns every byte its generation loop touches, so a
// generation allocates nothing. The population lives in slots the
// engine lays out when a run starts; a Crossover writes its children
// into two of them, working in the engine's Scratch; selection and
// elitism copy between them. Engine.Reset starts the next run in the
// same slots and Scratch whenever they are large enough, so a pooled
// engine allocates its population once, not once per run. The boundary
// is explicit — chromosomes handed to a callback (OnGeneration,
// PostGeneration) are views of those slots, valid until the callback
// returns; chromosomes returned to the caller (Best, Result, Elites)
// are clones; chromosomes handed in (the seeds, Inject's migrants) are
// copied and never retained. CycleCrossover and RouletteWheel are the
// allocating front doors to the same kernels for callers outside a
// generation loop.
package ga

import "fmt"

// Chromosome is a permutation of distinct integer symbols. For the
// scheduling problem the symbols are the tasks' positions in their
// batch plus negative queue delimiters, but the GA machinery only
// relies on distinctness.
type Chromosome []int

// Clone returns an independent copy.
func (c Chromosome) Clone() Chromosome {
	out := make(Chromosome, len(c))
	copy(out, c)
	return out
}

// IsPermutationOf reports whether c and o contain exactly the same
// multiset of symbols.
func (c Chromosome) IsPermutationOf(o Chromosome) bool { //pnanalyze:ok surface reference oracle: the operator and engine tests check every child against it
	if len(c) != len(o) {
		return false
	}
	counts := make(map[int]int, len(c))
	for _, v := range c {
		counts[v]++
	}
	for _, v := range o {
		counts[v]--
		if counts[v] < 0 {
			return false
		}
	}
	return true
}

// ValidatePermutation returns an error if the chromosome contains
// duplicate symbols. Crossover correctness depends on distinctness.
func (c Chromosome) ValidatePermutation() error { //pnanalyze:ok surface reference oracle: the operator and engine tests check every child against it
	seen := make(map[int]struct{}, len(c))
	for i, v := range c {
		if _, dup := seen[v]; dup {
			return fmt.Errorf("ga: duplicate symbol %d at position %d", v, i)
		}
		seen[v] = struct{}{}
	}
	return nil
}

// Evaluator scores chromosomes. Fitness must be positive and finite,
// with larger values indicating better individuals; the roulette wheel
// normalises internally, so any positive monotone scale works.
type Evaluator interface {
	Fitness(c Chromosome) float64
}
