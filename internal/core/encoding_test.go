package core

import (
	"testing"
	"testing/quick"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
)

// encode converts per-processor queues of batch positions into a
// chromosome, the inverse of Decode: queues[j] lists the tasks of
// processor j in order.
func encode(queues [][]int) ga.Chromosome {
	var c ga.Chromosome
	for j, q := range queues {
		if j > 0 {
			c = append(c, Delimiter(j))
		}
		c = append(c, q...)
	}
	return c
}

// numTasks returns the number of task symbols in the chromosome.
func numTasks(c ga.Chromosome) int {
	n := 0
	for _, sym := range c {
		if sym >= 0 {
			n++
		}
	}
	return n
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	queues := [][]int{
		{3, 1},
		{},
		{0, 2, 4},
	}
	c := encode(queues)
	// 5 tasks, 3 procs → length 5+2 = 7
	if len(c) != ChromosomeLen(5, 3) {
		t.Fatalf("len = %d, want 7", len(c))
	}
	back := Decode(c, 3)
	if len(back) != 3 {
		t.Fatalf("decoded %d queues", len(back))
	}
	for j := range queues {
		if len(back[j]) != len(queues[j]) {
			t.Fatalf("queue %d: %v vs %v", j, back[j], queues[j])
		}
		for k := range queues[j] {
			if back[j][k] != queues[j][k] {
				t.Errorf("queue %d[%d] = %v, want %v", j, k, back[j][k], queues[j][k])
			}
		}
	}
}

func TestDelimitersDistinct(t *testing.T) {
	c := encode([][]int{{0}, {1}, {2}, {3}})
	if err := c.ValidatePermutation(); err != nil {
		t.Errorf("encoded chromosome not a permutation: %v", err)
	}
	negs := map[int]bool{}
	for _, sym := range c {
		if sym < 0 {
			if negs[sym] {
				t.Fatalf("duplicate delimiter %d in %v", sym, c)
			}
			negs[sym] = true
		}
	}
	if len(negs) != 3 {
		t.Errorf("want 3 distinct delimiters, got %d", len(negs))
	}
}

func TestDecodeHandlesShuffledDelimiters(t *testing.T) {
	// After crossover/mutation, delimiter symbols can appear in any
	// order; decoding must only care about positions.
	c := ga.Chromosome{5, Delimiter(3), 2, 7, Delimiter(1), Delimiter(2), 9}
	queues := Decode(c, 4)
	wants := [][]int{{5}, {2, 7}, {}, {9}}
	for j, want := range wants {
		if len(queues[j]) != len(want) {
			t.Fatalf("queue %d = %v, want %v", j, queues[j], want)
		}
		for k := range want {
			if queues[j][k] != want[k] {
				t.Errorf("queue %d[%d] = %v, want %v", j, k, queues[j][k], want[k])
			}
		}
	}
}

func TestDecodePanicsOnTooManyDelimiters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("excess delimiters did not panic")
		}
	}()
	Decode(ga.Chromosome{0, -1, 1, -2, 2}, 2) // 2 delimiters for M=2
}

func TestSingleProcessorNoDelimiters(t *testing.T) {
	c := encode([][]int{{0, 1, 2}})
	if len(c) != 3 {
		t.Fatalf("single-proc chromosome = %v", c)
	}
	q := Decode(c, 1)
	if len(q[0]) != 3 {
		t.Errorf("decoded = %v", q)
	}
}

// Round trip over random queue layouts.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed uint64, mRaw, hRaw uint8) bool {
		m := int(mRaw%10) + 1
		h := int(hRaw % 50)
		r := rng.New(seed)
		queues := make([][]int, m)
		for i := 0; i < h; i++ {
			j := r.Intn(m)
			queues[j] = append(queues[j], i)
		}
		c := encode(queues)
		if len(c) != ChromosomeLen(h, m) {
			return false
		}
		back := Decode(c, m)
		for j := range queues {
			if len(back[j]) != len(queues[j]) {
				return false
			}
			for k := range queues[j] {
				if back[j][k] != queues[j][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
