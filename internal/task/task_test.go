package task

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"pnsched/internal/rng"
	"pnsched/internal/units"
)

func mk(id ID, size units.MFlops) Task { return Task{ID: id, Size: size} }

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(2)
	for i := 0; i < 10; i++ {
		q.Push(mk(ID(i), units.MFlops(i*10)))
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		got, ok := q.Pop()
		if !ok || got.ID != ID(i) {
			t.Fatalf("Pop %d = %v, ok=%v", i, got, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue returned ok")
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue(4)
	// Interleave pushes and pops so head wraps.
	for i := 0; i < 100; i++ {
		q.Push(mk(ID(i), 1))
		if i%2 == 1 {
			q.Pop()
		}
	}
	want := ID(50) // 100 pushed, 50 popped → head is task 50
	got, ok := q.Pop()
	if !ok || got.ID != want {
		t.Errorf("after wraparound head = %v, want id %d", got, want)
	}
}

func TestQueuePopN(t *testing.T) {
	q := NewQueue(4)
	for i := 0; i < 5; i++ {
		q.Push(mk(ID(i), 1))
	}
	got := q.PopN(3)
	if len(got) != 3 || got[0].ID != 0 || got[2].ID != 2 {
		t.Errorf("PopN(3) = %v", got)
	}
	got = q.PopN(10) // more than remain
	if len(got) != 2 || got[0].ID != 3 {
		t.Errorf("PopN(10) = %v", got)
	}
	if got := q.PopN(3); got != nil {
		t.Errorf("PopN on empty = %v, want nil", got)
	}
}

func TestQueueTotalSizeAndSnapshot(t *testing.T) {
	q := NewQueue(2)
	q.PushAll([]Task{mk(0, 5), mk(1, 10), mk(2, 15)})
	if got := q.TotalSize(); got != 30 {
		t.Errorf("TotalSize = %v", got)
	}
	snap := q.Snapshot()
	if len(snap) != 3 || snap[0].ID != 0 || snap[2].ID != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
	if q.Len() != 3 {
		t.Error("Snapshot mutated queue")
	}
}

// Push/Pop through arbitrary interleavings must preserve FCFS order.
func TestQueueOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewQueue(1)
		next := ID(0)
		expect := ID(0)
		for _, push := range ops {
			if push {
				q.Push(mk(next, 1))
				next++
			} else if tk, ok := q.Pop(); ok {
				if tk.ID != expect {
					return false
				}
				expect++
			}
		}
		// Drain and verify the remainder.
		for {
			tk, ok := q.Pop()
			if !ok {
				break
			}
			if tk.ID != expect {
				return false
			}
			expect++
		}
		return expect == next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSorts(t *testing.T) {
	ts := []Task{mk(0, 30), mk(1, 10), mk(2, 20)}
	SortBySizeAscending(ts)
	if ts[0].ID != 1 || ts[2].ID != 0 {
		t.Errorf("ascending = %v", ts)
	}
	SortBySizeDescending(ts)
	if ts[0].ID != 0 || ts[2].ID != 1 {
		t.Errorf("descending = %v", ts)
	}
}

func TestSortStability(t *testing.T) {
	ts := []Task{mk(0, 10), mk(1, 10), mk(2, 10)}
	SortBySizeAscending(ts)
	for i, tk := range ts {
		if tk.ID != ID(i) {
			t.Errorf("stable sort reordered equal elements: %v", ts)
		}
	}
}

// TestSortsMatchSliceStable compares both sorts with sort.SliceStable
// over the same order, on inputs long enough to be merged in blocks and
// with many equal sizes: a stable sort's output is unique, so they must
// agree element for element.
func TestSortsMatchSliceStable(t *testing.T) {
	r := rng.New(5)
	for round := 0; round < 200; round++ {
		ts := make([]Task, 1+r.Intn(300))
		for i := range ts {
			ts[i] = mk(ID(i), units.MFlops(r.Intn(1+r.Intn(40))))
		}
		for _, tc := range []struct {
			sort func([]Task)
			less func(a, b Task) bool
		}{
			{SortBySizeAscending, func(a, b Task) bool { return a.Size < b.Size }},
			{SortBySizeDescending, func(a, b Task) bool { return a.Size > b.Size }},
		} {
			got := append([]Task(nil), ts...)
			tc.sort(got)
			want := append([]Task(nil), ts...)
			sort.SliceStable(want, func(i, j int) bool { return tc.less(want[i], want[j]) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: got %v, want %v", round, got, want)
			}
		}
	}
}
