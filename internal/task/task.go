// Package task defines the unit of work the scheduler places: an
// indivisible, independent task with a resource requirement measured in
// MFLOPs (paper §3: "Tasks are indivisible, independent of all other
// tasks, arrive randomly, and can be processed by any processor").
//
// It also provides the FCFS queue of unscheduled tasks from which the
// batch schedulers draw, and the per-processor FIFO queues of future
// tasks the scheduler maintains.
package task

import (
	"fmt"
	"sort"

	"pnsched/internal/units"
)

// ID identifies a task. IDs are non-negative; negative values are
// reserved by the GA chromosome encoding for processor-queue delimiter
// symbols (see internal/core).
type ID int32

// None is the sentinel for "no task".
const None ID = -1

// Task is an indivisible unit of work. The tags are its wire and
// journal form: Arrival never leaves the process, because a live task
// arrives when it is submitted.
type Task struct {
	ID      ID            `json:"id"`
	Size    units.MFlops  `json:"size"` // resource requirement
	Arrival units.Seconds `json:"-"`    // when the task becomes available for scheduling
}

// String implements fmt.Stringer.
func (t Task) String() string {
	return fmt.Sprintf("task %d (%v, arrives %v)", t.ID, t.Size, t.Arrival)
}

// SortBySizeAscending orders tasks smallest first (min-min scheduling).
// The sort is stable so equal-size tasks keep FCFS order.
func SortBySizeAscending(ts []Task) {
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].Size < ts[j].Size })
}

// SortBySizeDescending orders tasks largest first (max-min scheduling).
// The sort is stable so equal-size tasks keep FCFS order.
func SortBySizeDescending(ts []Task) {
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].Size > ts[j].Size })
}

// Queue is a FIFO queue of tasks backed by a ring buffer. The scheduler
// keeps one Queue of unscheduled tasks plus one per processor ("The
// scheduler contains a queue of future tasks for each processor").
// Queue is not safe for concurrent use.
type Queue struct {
	buf        []Task
	head, size int
}

// NewQueue returns an empty queue with capacity for hint tasks (it grows
// as needed).
func NewQueue(hint int) *Queue {
	if hint < 4 {
		hint = 4
	}
	return &Queue{buf: make([]Task, hint)}
}

// Len returns the number of queued tasks.
func (q *Queue) Len() int { return q.size }

// Empty reports whether the queue holds no tasks.
func (q *Queue) Empty() bool { return q.size == 0 }

// Push appends a task at the tail.
func (q *Queue) Push(t Task) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = t
	q.size++
}

// PushAll appends all tasks in order.
func (q *Queue) PushAll(ts []Task) {
	for _, t := range ts {
		q.Push(t)
	}
}

// Pop removes and returns the head task. The second result is false if
// the queue is empty.
func (q *Queue) Pop() (Task, bool) {
	if q.size == 0 {
		return Task{}, false
	}
	t := q.buf[q.head]
	q.buf[q.head] = Task{} // avoid retaining
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return t, true
}

// PopN removes and returns up to n tasks from the head, preserving FCFS
// order. Fewer than n are returned if the queue drains first.
func (q *Queue) PopN(n int) []Task {
	if n > q.size {
		n = q.size
	}
	if n <= 0 {
		return nil
	}
	out := make([]Task, 0, n)
	for i := 0; i < n; i++ {
		t, _ := q.Pop()
		out = append(out, t)
	}
	return out
}

// TotalSize returns the aggregate work currently queued.
func (q *Queue) TotalSize() units.MFlops {
	var total units.MFlops
	for i := 0; i < q.size; i++ {
		total += q.buf[(q.head+i)%len(q.buf)].Size
	}
	return total
}

// Snapshot returns the queued tasks in FCFS order without mutating the
// queue.
func (q *Queue) Snapshot() []Task {
	out := make([]Task, q.size)
	for i := 0; i < q.size; i++ {
		out[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	return out
}

func (q *Queue) grow() {
	nb := make([]Task, 2*len(q.buf))
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}

// Set is a collection of tasks indexed by ID, used by the simulator to
// verify the exactly-once processing invariant and by the GA to decode
// chromosomes back into tasks.
type Set struct {
	byID map[ID]Task
}

// NewSet builds a Set from the given tasks. Duplicate IDs are a
// programming error and panic.
func NewSet(ts []Task) *Set {
	s := &Set{byID: make(map[ID]Task, len(ts))}
	for _, t := range ts {
		if _, dup := s.byID[t.ID]; dup {
			panic(fmt.Sprintf("task: duplicate id %d in set", t.ID))
		}
		s.byID[t.ID] = t
	}
	return s
}

// MustGet returns the task with the given id, panicking if absent —
// used when the id provably came from the same batch.
func (s *Set) MustGet(id ID) Task {
	t, ok := s.byID[id]
	if !ok {
		panic(fmt.Sprintf("task: id %d not in set", id))
	}
	return t
}
