// Package eventq provides the time-ordered event queue at the heart of
// the discrete-event simulator: a binary min-heap keyed by event time,
// with insertion order breaking ties so that simultaneous events are
// processed first-come-first-served (deterministically).
package eventq

import "pnsched/internal/units"

// Item is a scheduled event.
type Item struct {
	Time    units.Seconds
	Seq     uint64 // tie-breaker: insertion order
	Payload any
}

// Queue is a min-heap of events ordered by (Time, Seq). The zero value
// is an empty, usable queue. Not safe for concurrent use.
type Queue struct {
	items []Item
	seq   uint64
}

// Empty reports whether no events are pending.
func (q *Queue) Empty() bool { return len(q.items) == 0 } //pnanalyze:ok surface ROADMAP item 24(a): the stepped simulator loop's HasPendingEvents

// Push schedules payload at time t.
func (q *Queue) Push(t units.Seconds, payload any) {
	q.items = append(q.items, Item{Time: t, Seq: q.seq, Payload: payload})
	q.seq++
	q.up(len(q.items) - 1)
}

// Pop removes and returns the earliest event. The second result is
// false if the queue is empty.
func (q *Queue) Pop() (Item, bool) {
	if len(q.items) == 0 {
		return Item{}, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = Item{}
	q.items = q.items[:last]
	if len(q.items) > 0 {
		q.down(0)
	}
	return top, true
}

// Peek returns the earliest event without removing it.
func (q *Queue) Peek() (Item, bool) { //pnanalyze:ok surface ROADMAP item 24(a): the stepped simulator loop's PeekNextEventTime
	if len(q.items) == 0 {
		return Item{}, false
	}
	return q.items[0], true
}

// NextTime returns the time of the earliest event, or units.Inf() if
// the queue is empty.
func (q *Queue) NextTime() units.Seconds {
	if len(q.items) == 0 {
		return units.Inf()
	}
	return q.items[0].Time
}

func (q *Queue) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Seq < b.Seq
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
