package ga

import (
	"fmt"
	"slices"
	"testing"

	"pnsched/internal/rng"
)

// The oracle* functions are the allocating crossover operators as they
// stood before the engine took ownership of its memory (one index, two
// children and a map or two per call), kept verbatim as the reference
// FuzzCrossover holds the in-place kernels to. They are not a second
// implementation to maintain: they change only if the operators'
// meaning does.

func oracleCX(p1, p2 Chromosome, _ *rng.RNG) (Chromosome, Chromosome) {
	n := len(p1)
	if n != len(p2) {
		panic(fmt.Sprintf("ga: cycle crossover length mismatch %d vs %d", n, len(p2)))
	}
	lookup := oraclePosIndex(p1)
	c1 := make(Chromosome, n)
	c2 := make(Chromosome, n)
	visited := make([]bool, n)
	cycle := 0
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		fromP1 := cycle%2 == 0
		i := start
		for {
			visited[i] = true
			if fromP1 {
				c1[i], c2[i] = p1[i], p2[i]
			} else {
				c1[i], c2[i] = p2[i], p1[i]
			}
			next, ok := lookup(p2[i])
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
	return c1, c2
}

func oraclePosIndex(p Chromosome) func(sym int) (int, bool) {
	n := len(p)
	if n == 0 {
		return func(int) (int, bool) { return 0, false }
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
		dense := make([]int, span)
		for i := range dense {
			dense[i] = -1
		}
		for i, v := range p {
			dense[v-lo] = i
		}
		return func(sym int) (int, bool) {
			i := sym - lo
			if i < 0 || i >= len(dense) || dense[i] < 0 {
				return 0, false
			}
			return dense[i], true
		}
	}
	pos := make(map[int]int, n)
	for i, v := range p {
		pos[v] = i
	}
	return func(sym int) (int, bool) {
		i, ok := pos[sym]
		return i, ok
	}
}

func oraclePMX(p1, p2 Chromosome, r *rng.RNG) (Chromosome, Chromosome) {
	n := len(p1)
	if n != len(p2) {
		panic(fmt.Sprintf("ga: PMX length mismatch %d vs %d", n, len(p2)))
	}
	if n < 2 {
		return p1.Clone(), p2.Clone()
	}
	lo := r.Intn(n)
	hi := r.Intn(n)
	if lo > hi {
		lo, hi = hi, lo
	}
	return oraclePMXChild(p1, p2, lo, hi), oraclePMXChild(p2, p1, lo, hi)
}

func oraclePMXChild(a, b Chromosome, lo, hi int) Chromosome {
	n := len(a)
	child := a.Clone()
	mapping := make(map[int]int, hi-lo+1)
	for i := lo; i <= hi; i++ {
		child[i] = b[i]
		mapping[b[i]] = a[i]
	}
	for i := 0; i < n; i++ {
		if i >= lo && i <= hi {
			continue
		}
		v := child[i]
		for {
			next, dup := mapping[v]
			if !dup {
				break
			}
			v = next
		}
		child[i] = v
	}
	return child
}

func oracleOX(p1, p2 Chromosome, r *rng.RNG) (Chromosome, Chromosome) {
	n := len(p1)
	if n != len(p2) {
		panic(fmt.Sprintf("ga: OX length mismatch %d vs %d", n, len(p2)))
	}
	if n < 2 {
		return p1.Clone(), p2.Clone()
	}
	lo := r.Intn(n)
	hi := r.Intn(n)
	if lo > hi {
		lo, hi = hi, lo
	}
	return oracleOXChild(p1, p2, lo, hi), oracleOXChild(p2, p1, lo, hi)
}

func oracleOXChild(a, b Chromosome, lo, hi int) Chromosome {
	n := len(a)
	child := make(Chromosome, n)
	inSeg := make(map[int]struct{}, hi-lo+1)
	for i := lo; i <= hi; i++ {
		child[i] = a[i]
		inSeg[a[i]] = struct{}{}
	}
	fill := make([]int, 0, n-(hi-lo+1))
	for k := 1; k <= n; k++ {
		if p := (hi + k) % n; p < lo || p > hi {
			fill = append(fill, p)
		}
	}
	fi := 0
	for k := 1; k <= n && fi < len(fill); k++ {
		v := b[(hi+k)%n]
		if _, used := inSeg[v]; used {
			continue
		}
		child[fill[fi]] = v
		fi++
	}
	return child
}

// fuzzParents builds the two parents of one fuzz case. Each parent
// always holds distinct symbols (duplicates inside one parent send the
// oracle's cycle walk and PMX's repair chain round for ever, so there
// is no behaviour to compare); what the fault byte breaks is the
// relation between them — a shorter p2, or a p2 that is a permutation
// of a different symbol set.
func fuzzParents(seed uint64, size, shape, fault uint8) (p1, p2 Chromosome) {
	n := int(size % 48)
	r := rng.New(seed)
	stride := 1
	if shape&1 == 1 {
		stride = 100003 // sparse symbols: the map index
	}
	p1, p2 = make(Chromosome, n), make(Chromosome, n)
	for i, v := range perm(r, n) {
		p1[i] = (v - n/4) * stride // a few negatives, like the delimiters
	}
	for i, v := range perm(r, n) {
		p2[i] = (v - n/4) * stride
	}
	switch {
	case n == 0:
	case fault%4 == 1:
		p2 = p2[:n-1]
	case fault%4 == 2:
		p2[r.Intn(n)] = (n + 1) * stride // in nobody's symbol set
	case fault%4 == 3:
		copy(p2, p1) // identical parents
	}
	return p1, p2
}

// outcome is what one crossover call can be observed to do.
type outcome struct {
	c1, c2 Chromosome
	panicV string // "" when the call returned
	draw   uint64 // the RNG's next value afterwards: same draws consumed
}

func observe(r *rng.RNG, call func() (Chromosome, Chromosome)) (o outcome) {
	defer func() {
		if v := recover(); v != nil {
			o.panicV = fmt.Sprint(v)
		}
		o.draw = r.Uint64()
	}()
	o.c1, o.c2 = call()
	return o
}

// wantDiffs is the diff report by its definition: each child compared
// with each parent at every position.
func wantDiffs(c1, c2, p1, p2 Chromosome) (d [4][]int) {
	for k, pair := range [4][2]Chromosome{{c1, p1}, {c1, p2}, {c2, p1}, {c2, p2}} {
		d[k] = []int{}
		for i, v := range pair[0] {
			if v != pair[1][i] {
				d[k] = append(d[k], i)
			}
		}
	}
	return d
}

// FuzzCrossover holds the in-place CX, PMX and OX to the allocating
// operators they replaced: same children, same panics at the same
// point, same RNG draws — with a scratch that has already served
// parents of another shape, as the engine's has. A call that returns
// must also leave the diff report the engine reads: for each child, the
// positions where it differs from each parent. The seed corpus under
// testdata/fuzz/FuzzCrossover holds one case per operator × index kind
// × fault.
func FuzzCrossover(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, size, shape, fault uint8) {
		ops := []struct {
			name    string
			inPlace Crossover
			oracle  func(p1, p2 Chromosome, r *rng.RNG) (Chromosome, Chromosome)
		}{{"CX", CX, oracleCX}, {"PMX", PMX, oraclePMX}, {"OX", OX, oracleOX}}
		op := ops[int(shape>>1)%len(ops)]
		p1, p2 := fuzzParents(seed, size, shape, fault)

		// Dirty the scratch on a pair of the other index kind and
		// another length first.
		s := new(Scratch)
		d1, d2 := fuzzParents(seed+1, size+7, shape^1, 0)
		op.inPlace(make(Chromosome, len(d1)), make(Chromosome, len(d1)), d1, d2, s, rng.New(seed))

		rWant, rGot := rng.New(seed^0x5eed), rng.New(seed^0x5eed)
		want := observe(rWant, func() (Chromosome, Chromosome) { return op.oracle(p1, p2, rWant) })
		got := observe(rGot, func() (Chromosome, Chromosome) {
			c1, c2 := make(Chromosome, len(p1)), make(Chromosome, len(p1))
			op.inPlace(c1, c2, p1, p2, s, rGot)
			return c1, c2
		})

		if got.panicV != want.panicV {
			t.Fatalf("%s(%v, %v): panic %q, oracle %q", op.name, p1, p2, got.panicV, want.panicV)
		}
		if got.draw != want.draw {
			t.Fatalf("%s(%v, %v): consumed different RNG draws than the oracle", op.name, p1, p2)
		}
		if want.panicV != "" {
			return
		}
		if !slices.Equal(got.c1, want.c1) || !slices.Equal(got.c2, want.c2) {
			t.Fatalf("%s(%v, %v) = %v, %v; oracle %v, %v", op.name, p1, p2, got.c1, got.c2, want.c1, want.c2)
		}
		for k, d := range wantDiffs(got.c1, got.c2, p1, p2) {
			if !slices.Equal(s.diffs[k], d) {
				t.Fatalf("%s(%v, %v): diff report %d = %v, want %v", op.name, p1, p2, k, s.diffs[k], d)
			}
		}
		if p1.IsPermutationOf(p2) && !(got.c1.IsPermutationOf(p1) && got.c2.IsPermutationOf(p1)) {
			t.Fatalf("%s(%v, %v) = %v, %v: not permutations of the parents", op.name, p1, p2, got.c1, got.c2)
		}
	})
}
