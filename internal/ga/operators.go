package ga

import (
	"fmt"
	"math"
	"sort"

	"pnsched/internal/rng"
)

// Scratch is the working memory of the selection and crossover
// kernels: the symbol→position index, the position marks and the
// roulette wheel's cumulative weights and picks. An Engine owns one and
// hands it to every Crossover call, which is what keeps Step free of
// allocations; the buffers grow on first use and are then reused, so
// the zero value is ready to use. A Scratch is not safe for concurrent
// use — island engines run one each.
type Scratch struct {
	index posIndex
	marks []bool // CX: positions already copied into the children
	cum   []float64
	picks []int
}

// reserve sizes every buffer for a population of n individuals shaped
// like sample, so an engine's first generation allocates as little as
// its thousandth.
func (s *Scratch) reserve(n int, sample Chromosome) {
	s.index.build(sample)
	s.marks = make([]bool, len(sample))
	s.cum = make([]float64, n)
	s.picks = make([]int, n)
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
func CX(c1, c2, p1, p2 Chromosome, s *Scratch, _ *rng.RNG) {
	n := len(p1)
	if n != len(p2) {
		panic(fmt.Sprintf("ga: cycle crossover length mismatch %d vs %d", n, len(p2)))
	}
	s.index.build(p1)
	if cap(s.marks) < n {
		s.marks = make([]bool, n)
	}
	visited := s.marks[:n]
	clear(visited)
	cycle := 0
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		// Copy the cycle through position start, alternating source
		// parent per cycle.
		fromP1 := cycle%2 == 0
		i := start
		for {
			visited[i] = true
			if fromP1 {
				c1[i], c2[i] = p1[i], p2[i]
			} else {
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
		cycle++
	}
}

// posIndex is a reusable symbol→position lookup for one chromosome at a
// time. For the common case of a compact symbol range (task ids plus
// small negative delimiters) it is a dense slice; sparse symbol sets
// fall back to a map. Both are kept between builds, so rebuilding over
// chromosomes of one shape allocates nothing.
type posIndex struct {
	lo     int
	dense  []int // dense[sym-lo] = position, -1 when absent
	sparse map[int]int
	isMap  bool // the last build chose the map
}

// build indexes p, replacing whatever was indexed before.
func (x *posIndex) build(p Chromosome) {
	n := len(p)
	x.isMap = false
	x.dense = x.dense[:0]
	if n == 0 {
		return
	}
	lo, hi := p[0], p[0]
	for _, v := range p {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if span := hi - lo + 1; span <= 16*n+64 {
		if cap(x.dense) < span {
			x.dense = make([]int, span)
		}
		x.lo, x.dense = lo, x.dense[:span]
		for i := range x.dense {
			x.dense[i] = -1
		}
		for i, v := range p {
			x.dense[v-lo] = i
		}
		return
	}
	x.isMap = true
	if x.sparse == nil {
		x.sparse = make(map[int]int, n)
	}
	clear(x.sparse)
	for i, v := range p {
		x.sparse[v] = i
	}
}

// lookup returns the position of sym in the indexed chromosome.
func (x *posIndex) lookup(sym int) (int, bool) {
	if x.isMap {
		i, ok := x.sparse[sym]
		return i, ok
	}
	i := sym - x.lo
	if i < 0 || i >= len(x.dense) || x.dense[i] < 0 {
		return 0, false
	}
	return x.dense[i], true
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
