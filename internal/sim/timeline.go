package sim

import (
	"fmt"
	"io"
	"strings"

	"pnsched/internal/task"
	"pnsched/internal/units"
)

// SegmentKind labels a timeline segment.
type SegmentKind uint8

// Segment kinds.
const (
	// SegComm is time spent transferring a task over the link.
	SegComm SegmentKind = iota
	// SegBusy is time spent processing a task.
	SegBusy
)

// String implements fmt.Stringer.
func (k SegmentKind) String() string {
	switch k {
	case SegComm:
		return "comm"
	case SegBusy:
		return "busy"
	default:
		return fmt.Sprintf("SegmentKind(%d)", uint8(k))
	}
}

// Segment is one contiguous activity interval on a processor. Gaps
// between segments are idle time.
type Segment struct {
	Start, End units.Seconds
	Kind       SegmentKind
	Task       task.ID
}

// Timeline records per-processor activity for one simulation run.
// Attach it via Config.Timeline; afterwards it holds every comm and
// busy interval in chronological order.
type Timeline struct {
	Procs    [][]Segment
	Makespan units.Seconds
}

func (tl *Timeline) record(j int, s Segment) {
	if s.End > s.Start {
		tl.Procs[j] = append(tl.Procs[j], s)
	}
}

// Validate checks the structural invariants: per-processor segments
// are chronologically ordered, non-overlapping, and inside
// [0, Makespan]. The simulator must always produce a valid timeline;
// tests rely on this as an accounting cross-check.
func (tl *Timeline) Validate() error { //pnanalyze:ok surface reference oracle: the sim tests check every recorded timeline against it
	for j, segs := range tl.Procs {
		var prev units.Seconds
		for i, s := range segs {
			if s.Start < 0 || s.End < s.Start {
				return fmt.Errorf("sim: proc %d segment %d malformed [%v,%v]", j, i, s.Start, s.End)
			}
			if s.Start < prev {
				return fmt.Errorf("sim: proc %d segment %d overlaps previous (starts %v before %v)", j, i, s.Start, prev)
			}
			if tl.Makespan > 0 && s.End > tl.Makespan+1e-9 {
				return fmt.Errorf("sim: proc %d segment %d ends %v after makespan %v", j, i, s.End, tl.Makespan)
			}
			prev = s.End
		}
	}
	return nil
}

// Utilization returns processor j's busy, comm and idle fractions of
// the makespan. With a zero makespan all fractions are zero.
func (tl *Timeline) Utilization(j int) (busy, comm, idle float64) {
	if tl.Makespan <= 0 {
		return 0, 0, 0
	}
	var b, c units.Seconds
	for _, s := range tl.Procs[j] {
		switch s.Kind {
		case SegBusy:
			b += s.End - s.Start
		case SegComm:
			c += s.End - s.Start
		}
	}
	total := float64(tl.Makespan)
	busy = float64(b) / total
	comm = float64(c) / total
	idle = 1 - busy - comm
	if idle < 0 {
		idle = 0
	}
	return busy, comm, idle
}

// Gantt renders the timeline as text, one row per processor:
// '#' processing, '~' communicating, '.' idle.
func (tl *Timeline) Gantt(w io.Writer, width int) {
	if width < 10 {
		width = 10
	}
	if tl.Makespan <= 0 {
		fmt.Fprintln(w, "(empty timeline)")
		return
	}
	fmt.Fprintf(w, "gantt: 0 .. %v  ('#' busy, '~' comm, '.' idle)\n", tl.Makespan)
	scale := float64(width) / float64(tl.Makespan)
	for j, segs := range tl.Procs {
		row := []byte(strings.Repeat(".", width))
		for _, s := range segs {
			lo := int(float64(s.Start) * scale)
			hi := int(float64(s.End) * scale)
			if hi >= width {
				hi = width - 1
			}
			ch := byte('#')
			if s.Kind == SegComm {
				ch = '~'
			}
			for i := lo; i <= hi && i < width; i++ {
				row[i] = ch
			}
		}
		busy, comm, _ := tl.Utilization(j)
		fmt.Fprintf(w, "  P%-3d |%s| busy %4.0f%% comm %4.0f%%\n", j, row, busy*100, comm*100)
	}
}
