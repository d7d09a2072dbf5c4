package eventq

import (
	"sort"
	"testing"
	"testing/quick"

	"pnsched/internal/rng"
	"pnsched/internal/units"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if !q.Empty() || len(q.items) != 0 {
		t.Error("zero-value queue not empty")
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty returned ok")
	}
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty returned ok")
	}
	if !q.NextTime().IsInf() {
		t.Error("NextTime on empty must be Inf")
	}
}

func TestOrdering(t *testing.T) {
	var q Queue
	times := []units.Seconds{5, 1, 3, 2, 4}
	for _, tm := range times {
		q.Push(tm, tm)
	}
	var got []units.Seconds
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, it.Time)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("lost events: %v", got)
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(7, i)
	}
	for i := 0; i < 10; i++ {
		it, _ := q.Pop()
		if it.Payload.(int) != i {
			t.Fatalf("tie-break violated: got %v at position %d", it.Payload, i)
		}
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	var q Queue
	q.Push(3, "x")
	it, ok := q.Peek()
	if !ok || it.Time != 3 {
		t.Fatalf("Peek = %v", it)
	}
	if len(q.items) != 1 {
		t.Error("Peek consumed the event")
	}
	if q.NextTime() != 3 {
		t.Errorf("NextTime = %v", q.NextTime())
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue
	q.Push(10, "late")
	q.Push(1, "early")
	it, _ := q.Pop()
	if it.Payload != "early" {
		t.Fatalf("got %v", it.Payload)
	}
	q.Push(5, "mid")
	it, _ = q.Pop()
	if it.Payload != "mid" {
		t.Fatalf("got %v", it.Payload)
	}
	it, _ = q.Pop()
	if it.Payload != "late" {
		t.Fatalf("got %v", it.Payload)
	}
}

// Heap must deliver any random multiset of times in sorted order.
func TestHeapSortProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		r := rng.New(seed)
		var q Queue
		times := make([]float64, n)
		for i := range times {
			times[i] = r.Uniform(0, 100)
			q.Push(units.Seconds(times[i]), i)
		}
		sort.Float64s(times)
		for i := 0; i < n; i++ {
			it, ok := q.Pop()
			if !ok || float64(it.Time) != times[i] {
				return false
			}
		}
		return q.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	r := rng.New(1)
	var q Queue
	for i := 0; i < b.N; i++ {
		q.Push(units.Seconds(r.Float64()), i)
		if len(q.items) > 1000 {
			q.Pop()
		}
	}
}
