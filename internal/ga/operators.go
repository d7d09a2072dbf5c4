package ga

import (
	"fmt"
	"math"
	"math/bits"

	"pnsched/internal/rng"
)

// Scratch is the working memory of the selection and crossover
// kernels: the symbol→position index, the position marks, the roulette
// wheel's cumulative weights and picks, and the diff report every
// Crossover leaves behind — diffs[0] and diffs[1] hold the positions
// where the first child differs from the first and the second parent,
// diffs[2] and diffs[3] those of the second child, each in increasing
// order. An Engine owns one and hands it to every Crossover call, which
// is what keeps Step free of allocations; the buffers grow on first use
// and are then reused, so the zero value is ready to use. A Scratch is
// not safe for concurrent use — island engines run one each.
type Scratch struct {
	index posIndex
	marks []uint8 // CX: how each walked position was inherited
	cxAt  []int   // CX: positions where the parents differ
	cum   []float64
	picks []int
	diffs [4][]int // the diff report: where each child differs from each parent
	lists []int    // room for the report: four lists of a chromosome's length
	ints  []int    // reserve's array behind picks, cxAt and lists
}

// reserve sizes every buffer for a population of n individuals shaped
// like sample, so an engine's first generation allocates as little as
// its thousandth. The picks and the position lists share one array.
// Buffers already large enough are reused, so an engine Reset to the
// same shape allocates nothing here.
func (s *Scratch) reserve(n int, sample Chromosome) {
	s.index.build(sample)
	s.cum = resize(s.cum, n)
	s.ints = resize(s.ints, n+5*len(sample))
	s.picks = s.ints[:n:n]
	s.carve(s.ints[n:], len(sample))
}

// fit grows the position buffers for chromosomes of length l.
func (s *Scratch) fit(l int) {
	if cap(s.cxAt) < l {
		s.carve(make([]int, 5*l), l)
	}
}

// carve lays the marks and the five position lists out for chromosomes
// of length l, the lists on ints (5·l long).
func (s *Scratch) carve(ints []int, l int) {
	s.marks = resize(s.marks, l)
	s.cxAt, s.lists = ints[:l:l], ints[l:]
}

// list returns the k-th of the report's four lists, empty, with room
// for l positions.
func (s *Scratch) list(k, l int) []int {
	return s.lists[k*l : k*l : (k+1)*l]
}

// diff4 is the generic diff report: it compares both children with both
// parents at every position and leaves the four position lists in
// s.diffs. PMX and OX end with it; CX reports what it walked instead.
func (s *Scratch) diff4(c1, c2, a, b Chromosome) {
	l := len(c1)
	s.fit(l)
	c2, a, b = c2[:l], a[:l], b[:l]
	d0, d1, d2, d3 := s.list(0, l), s.list(1, l), s.list(2, l), s.list(3, l)
	for i, u := range c1 {
		v, x, y := c2[i], a[i], b[i]
		if (u^x)|(u^y)|(v^x) == 0 { // the common case: all four agree
			continue
		}
		if u != x {
			d0 = append(d0, i)
		}
		if u != y {
			d1 = append(d1, i)
		}
		if v != x {
			d2 = append(d2, i)
		}
		if v != y {
			d3 = append(d3, i)
		}
	}
	s.diffs = [4][]int{d0, d1, d2, d3}
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
func RouletteWheel(fitness []float64, count int, r *rng.RNG) []int { //pnanalyze:ok surface fenced leftover (iv): an allocating wrapper the operator tests call
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
		// first of the run, i.e. the individual owning the mass. The
		// wheel is a micro-GA's (20 weights by default), so a linear
		// scan finds it sooner than a binary search.
		idx := 0
		for idx < n && cum[idx] < x {
			idx++
		}
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
func CycleCrossover(p1, p2 Chromosome) (Chromosome, Chromosome) { //pnanalyze:ok surface fenced leftover (iv): an allocating wrapper the operator tests call
	c1 := make(Chromosome, len(p1))
	c2 := make(Chromosome, len(p1))
	CX(c1, c2, p1, p2, new(Scratch), nil)
	return c1, c2
}

// How CX inherited a position where the parents differ: zero while the
// walk has not reached it.
const (
	cxKept    uint8 = 1 // each child holds its own parent's symbol
	cxSwapped uint8 = 2 // each child holds the other parent's symbol
)

// CX is cycle crossover under the Crossover signature (the operator is
// deterministic; the RNG is unused).
//
// The children start as copies of their own parent, and only the
// positions where the parents differ are indexed and walked: a position
// where they agree is a cycle of one, counted to keep the alternation
// but needing no lookup and no copy. A converged population's parents
// agree at most positions, so CX costs little more than the copies.
// The walk marks each differing position kept or swapped, and one pass
// over them writes the swaps and the diff report: the first child
// differs from the first parent where a position was swapped and from
// the second where it was kept, and the second child the other way
// round. That pass has no branch on the mark: every position is written
// to both lists and counted in one, and the swap is a masked exchange,
// so a population whose marks follow no pattern costs no mispredicts.
func CX(c1, c2, p1, p2 Chromosome, s *Scratch, _ *rng.RNG) {
	n := len(p1)
	if n != len(p2) {
		panic(fmt.Sprintf("ga: cycle crossover length mismatch %d vs %d", n, len(p2)))
	}
	copy(c1, p1)
	copy(c2, p2)
	s.fit(n)
	at, lo, hi := differing(s.cxAt, p1, p2)
	if len(at) > 0 {
		s.index.reset(lo, hi, n)
	}
	marks := s.marks[:n]
	for _, i := range at {
		s.index.set(p1[i], i)
		marks[i] = 0
	}
	walked := 0 // cycles longer than one so far
	for k, start := range at {
		if marks[start] != 0 {
			continue
		}
		// The cycle's number is the cycles of one before start (the
		// start-k positions there the parents agree on) plus the longer
		// cycles already walked; every other one takes its symbols from
		// the opposite parent.
		mark := cxKept
		if (start-k+walked)&1 == 1 {
			mark = cxSwapped
		}
		for i := start; ; {
			marks[i] = mark
			next, ok := s.index.lookup(p2[i])
			if !ok {
				panic(fmt.Sprintf("ga: cycle crossover: symbol %d of p2 absent from p1", p2[i]))
			}
			if i = next; i == start {
				break
			}
		}
		walked++
	}
	swapped, kept := s.lists[:n:n], s.lists[n:2*n:2*n]
	ns, nk := 0, 0
	for _, i := range at {
		sw := int(marks[i] >> 1) // cxSwapped → 1, cxKept → 0
		swapped[ns], kept[nk] = i, i
		ns, nk = ns+sw, nk+1-sw
		x, y := p1[i], p2[i]
		d := (x ^ y) & -sw // all ones when swapped
		c1[i], c2[i] = x^d, y^d
	}
	s.diffs = [4][]int{swapped[:ns], kept[:nk], kept[:nk], swapped[:ns]}
}

// differing writes into at, in increasing order, the positions where a
// and b differ, and returns them with the range of a's symbols there. at
// and b must be at least as long as a. Four positions are compared per
// branch: parents mostly agree, so most quads are skipped whole. A quad
// that differs is compacted without a branch per position — each one is
// written at the next free index, which advances only past a differing
// one — and the symbol range is taken over the compacted positions.
func differing(at []int, a, b Chromosome) (_ []int, lo, hi int) {
	at, b = at[:len(a)], b[:len(a)]
	n := 0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		if (x[0]^y[0])|(x[1]^y[1])|(x[2]^y[2])|(x[3]^y[3]) == 0 {
			continue
		}
		for j, v := range x {
			at[n] = i + j
			n += differs(v, y[j])
		}
	}
	for ; i < len(a); i++ {
		at[n] = i
		n += differs(a[i], b[i])
	}
	lo, hi = math.MaxInt, math.MinInt
	for _, k := range at[:n] {
		lo, hi = min(lo, a[k]), max(hi, a[k])
	}
	return at[:n], lo, hi
}

// differs is 1 when u and v differ and 0 when they are equal, without a
// branch.
func differs(u, v int) int {
	d := uint(u ^ v)
	return int((d | -d) >> (bits.UintSize - 1))
}

// posIndex is a reusable symbol→position lookup for one chromosome at a
// time, or for some of its positions (CX indexes only those where the
// parents differ). For the common case of a compact symbol range
// (batch positions plus small negative delimiters) it is a dense table
// whose entries belong to the current build only while their stamp is
// the build's, so a rebuild writes the positions it indexes and nothing
// else; sparse symbol sets fall back to a map. Both are kept between builds, so
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
func SwapMutation(c Chromosome, r *rng.RNG) { //pnanalyze:ok surface fenced leftover (iv): an allocating wrapper the operator tests call
	n := len(c)
	if n < 2 {
		return
	}
	i, j := swapPositions(n, r)
	c[i], c[j] = c[j], c[i]
}

// swapPositions draws the two distinct positions SwapMutation
// exchanges. The engine performs the swap itself (a slot evaluator
// must hear the positions for a delta update), so the draw scheme
// lives here, once, keeping the engine and SwapMutation
// byte-identical. n must be at least 2.
func swapPositions(n int, r *rng.RNG) (i, j int) {
	i = r.Intn(n)
	j = r.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}
