package ga

import (
	"fmt"
	"math"
	"sort"

	"pnsched/internal/rng"
)

// Scratch is the working memory of the selection and crossover
// kernels: the symbol→position index, the position marks, the roulette
// wheel's cumulative weights and picks, and the engine's per-child
// diffs against each parent. An Engine owns one and hands it to every
// Crossover call, which is what keeps Step free of allocations; the
// buffers grow on first use and are then reused, so the zero value is
// ready to use. A Scratch is not safe for concurrent use — island
// engines run one each.
type Scratch struct {
	index posIndex
	marks []bool // CX: positions already walked
	cxAt  []int  // CX: positions where the parents differ
	cum   []float64
	picks []int
	diffs [4][]int // the engine: where each of two children differs from each parent
}

// reserve sizes every buffer for a population of n individuals shaped
// like sample, so an engine's first generation allocates as little as
// its thousandth. The position lists share one array.
func (s *Scratch) reserve(n int, sample Chromosome) {
	l := len(sample)
	s.index.build(sample)
	s.marks = make([]bool, l)
	s.cum = make([]float64, n)
	ints := make([]int, n+5*l)
	s.picks = ints[:n:n]
	s.cxAt = ints[n : n+l : n+l]
	for k := range s.diffs {
		lo := n + (k+1)*l
		s.diffs[k] = ints[lo : lo+l : lo+l]
	}
}

// RouletteWheel implements the paper's §3.3 selection: each individual i
// receives a slot of size ςᵢ = Fᵢ / ΣFⱼ on the unit interval, and
// individuals are drawn (with replacement) by spinning the wheel count
// times. The returned slice holds indices into the fitness slice.
//
// Non-finite or non-positive fitness values are treated as zero weight.
// If every weight is zero the selection degenerates to uniform — the
// correct limit for an indifferent wheel, and it keeps the GA alive when
// the population is uniformly terrible.
//
// RouletteWheel allocates its result; the engine spins the same wheel
// through its Scratch.
func RouletteWheel(fitness []float64, count int, r *rng.RNG) []int {
	return new(Scratch).roulette(fitness, count, r)
}

// roulette is RouletteWheel into the scratch's own buffers: the result
// is valid until the next spin.
func (s *Scratch) roulette(fitness []float64, count int, r *rng.RNG) []int {
	n := len(fitness)
	if n == 0 || count <= 0 {
		return nil
	}
	if cap(s.cum) < n {
		s.cum = make([]float64, n)
	}
	if cap(s.picks) < count {
		s.picks = make([]int, count)
	}
	cum, out := s.cum[:n], s.picks[:count]
	var total float64
	for i, f := range fitness {
		if f > 0 && !math.IsInf(f, 0) && !math.IsNaN(f) {
			total += f
		}
		cum[i] = total
	}
	if total <= 0 {
		for i := range out {
			out[i] = r.Intn(n)
		}
		return out
	}
	for i := range out {
		x := r.Float64() * total
		// Smallest index whose cumulative weight reaches x; duplicate
		// cumulative values (zero-weight individuals) resolve to the
		// first of the run, i.e. the individual owning the mass.
		idx := sort.SearchFloat64s(cum, x)
		if idx >= n { // x == total edge case
			idx = n - 1
		}
		// x == 0 with leading zero-weight individuals: advance to the
		// first individual with positive cumulative mass.
		for idx < n-1 && cum[idx] == 0 {
			idx++
		}
		out[i] = idx
	}
	return out
}

// CycleCrossover implements the permutation crossover of Oliver, Smith
// and Holland used by the paper (§3.3) "to promote exploration". Both
// children preserve the absolute position of every symbol: positions are
// partitioned into cycles, and alternate cycles are copied from each
// parent. The operator is deterministic given its parents.
//
// It panics if the parents are not permutations of the same symbol set —
// the GA must never reach that state, so it is asserted.
//
// CycleCrossover allocates its children; CX is the same kernel writing
// into destinations the caller owns.
func CycleCrossover(p1, p2 Chromosome) (Chromosome, Chromosome) {
	c1 := make(Chromosome, len(p1))
	c2 := make(Chromosome, len(p1))
	CX(c1, c2, p1, p2, new(Scratch), nil)
	return c1, c2
}

// CX is cycle crossover under the Crossover signature (the operator is
// deterministic; the RNG is unused).
//
// The children start as copies of their own parent, and only the
// positions where the parents differ are indexed and walked: a position
// where they agree is a cycle of one, counted to keep the alternation
// but needing no lookup and no copy. A converged population's parents
// agree at most positions, so CX costs little more than the copies.
func CX(c1, c2, p1, p2 Chromosome, s *Scratch, _ *rng.RNG) {
	n := len(p1)
	if n != len(p2) {
		panic(fmt.Sprintf("ga: cycle crossover length mismatch %d vs %d", n, len(p2)))
	}
	copy(c1, p1)
	copy(c2, p2)
	if cap(s.cxAt) < n {
		s.cxAt = make([]int, n)
	}
	if cap(s.marks) < n {
		s.marks = make([]bool, n)
	}
	// The positions where the parents differ, and the range of p1's
	// symbols there.
	at, lo, hi := s.cxAt[:0], math.MaxInt, math.MinInt
	for i, v := range p1 {
		if v != p2[i] {
			lo, hi = min(lo, v), max(hi, v)
			at = append(at, i)
		}
	}
	if len(at) == 0 {
		return
	}
	s.index.reset(lo, hi, n)
	for _, i := range at {
		s.index.set(p1[i], i)
	}
	visited := s.marks[:n]
	clear(visited)
	walked := 0 // cycles longer than one so far
	for k, start := range at {
		if visited[start] {
			continue
		}
		// The cycle's number is the cycles of one before start (the
		// start-k positions there the parents agree on) plus the longer
		// cycles already walked; every other one takes its symbols from
		// the opposite parent.
		swap := (start-k+walked)&1 == 1
		i := start
		for {
			visited[i] = true
			if swap {
				c1[i], c2[i] = p2[i], p1[i]
			}
			next, ok := s.index.lookup(p2[i])
			if !ok {
				panic(fmt.Sprintf("ga: cycle crossover: symbol %d of p2 absent from p1", p2[i]))
			}
			i = next
			if i == start {
				break
			}
		}
		walked++
	}
}

// posIndex is a reusable symbol→position lookup for one chromosome at a
// time, or for some of its positions (CX indexes only those where the
// parents differ). For the common case of a compact symbol range (task
// ids plus small negative delimiters) it is a dense table whose entries
// belong to the current build only while their stamp is the build's,
// so a rebuild writes the positions it indexes and nothing else; sparse
// symbol sets fall back to a map. Both are kept between builds, so
// rebuilding over chromosomes of one shape allocates nothing.
type posIndex struct {
	lo     int
	dense  []posEntry // dense[sym-lo]
	stamp  uint32     // the current build's
	sparse map[int]int
	isMap  bool // the last build chose the map
}

type posEntry struct {
	pos   int32
	stamp uint32 // the entry is current when it equals posIndex.stamp
}

// build indexes every position of p, replacing whatever was indexed
// before.
func (x *posIndex) build(p Chromosome) {
	lo, hi := 0, -1
	if len(p) > 0 {
		lo, hi = p[0], p[0]
	}
	for _, v := range p {
		lo, hi = min(lo, v), max(hi, v)
	}
	x.reset(lo, hi, len(p))
	for i, v := range p {
		x.set(v, i)
	}
}

// reset empties the index for symbols in [lo, hi] of a chromosome of
// length n: the dense table unless that range is sparse for n.
func (x *posIndex) reset(lo, hi, n int) {
	span := hi - lo + 1
	if x.isMap = span > 16*n+64; x.isMap {
		if x.sparse == nil {
			x.sparse = make(map[int]int, n)
		}
		clear(x.sparse)
		return
	}
	if len(x.dense) < span {
		x.dense = make([]posEntry, span)
		x.stamp = 0
	}
	x.lo = lo
	if x.stamp++; x.stamp == 0 { // wrapped: no entry may look current
		clear(x.dense)
		x.stamp = 1
	}
}

// set records that sym sits at position i; sym must lie in the range
// the index was reset for.
func (x *posIndex) set(sym, i int) {
	if x.isMap {
		x.sparse[sym] = i
		return
	}
	x.dense[sym-x.lo] = posEntry{pos: int32(i), stamp: x.stamp}
}

// lookup returns the position of sym in the indexed chromosome.
func (x *posIndex) lookup(sym int) (int, bool) {
	if x.isMap {
		i, ok := x.sparse[sym]
		return i, ok
	}
	i := sym - x.lo
	if i < 0 || i >= len(x.dense) || x.dense[i].stamp != x.stamp {
		return 0, false
	}
	return int(x.dense[i].pos), true
}

// SwapMutation exchanges two distinct random positions of c in place —
// the paper's first mutation ("we randomly swap elements of a randomly
// chosen individual"). Chromosomes shorter than 2 are left unchanged.
func SwapMutation(c Chromosome, r *rng.RNG) {
	n := len(c)
	if n < 2 {
		return
	}
	i, j := swapPositions(n, r)
	c[i], c[j] = c[j], c[i]
}

// swapPositions draws the two distinct positions SwapMutation
// exchanges. The engine's slot-evaluator path performs the swap itself
// (it must report the positions for a delta update), so the draw
// scheme lives here, once, keeping both paths byte-identical. n must
// be at least 2.
func swapPositions(n int, r *rng.RNG) (i, j int) {
	i = r.Intn(n)
	j = r.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}
