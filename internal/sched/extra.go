package sched

import (
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// This file implements four further heuristics from Maheswaran, Ali,
// Siegel, Hensgen & Freund, "Dynamic mapping of a class of independent
// tasks onto heterogeneous computing systems" (JPDC 1999) — reference
// [11] of the paper, the source of its immediate/batch-mode taxonomy.
// They extend the comparison beyond the paper's six baselines and are
// exercised by the supplementary "extended" experiment.

// MET is the immediate-mode minimum-execution-time heuristic: each task
// goes to the processor that executes it fastest, ignoring existing
// load. On a heterogeneous cluster this drowns the fastest machine —
// the classic failure mode the comparison exists to show. Θ(M).
type MET struct{}

// Name implements Scheduler.
func (MET) Name() string { return "MET" }

// Assign implements Immediate.
func (MET) Assign(t task.Task, s State) int {
	bestJ := -1
	best := units.Inf()
	for j := 0; j < s.M(); j++ {
		if et := t.Size.TimeOn(s.Rate(j)); et < best {
			best = et
			bestJ = j
		}
	}
	if bestJ < 0 {
		return 0
	}
	return bestJ
}

// OLB is opportunistic load balancing: each task goes to the processor
// expected to become ready soonest (smallest queue-drain time),
// regardless of how fast it will execute the task. Distinct from LL,
// which compares raw queued MFLOPs and ignores rates. Θ(M).
type OLB struct{}

// Name implements Scheduler.
func (OLB) Name() string { return "OLB" }

// Assign implements Immediate.
func (OLB) Assign(_ task.Task, s State) int {
	bestJ := -1
	best := units.Inf()
	for j := 0; j < s.M(); j++ {
		if ready := s.PendingLoad(j).TimeOn(s.Rate(j)); ready < best {
			best = ready
			bestJ = j
		}
	}
	if bestJ < 0 {
		return 0
	}
	return bestJ
}

// KPB is the k-percent-best heuristic: consider only the ⌈kM/100⌉
// processors with the best execution time for the task, and among them
// pick the earliest completion. k = 100 degenerates to EF; small k
// approaches MET. Maheswaran et al. found intermediate k best.
type KPB struct {
	// K is the percentage of processors considered (default 20).
	K int
}

// Name implements Scheduler.
func (KPB) Name() string { return "KPB" }

// Assign implements Immediate.
func (k KPB) Assign(t task.Task, s State) int {
	pct := k.K
	if pct <= 0 {
		pct = 20
	}
	if pct > 100 {
		pct = 100
	}
	m := s.M()
	subset := (m*pct + 99) / 100
	if subset < 1 {
		subset = 1
	}
	// Selection without a full sort: repeatedly take the fastest
	// remaining processor; m is small (≤ hundreds), so O(subset·M) is
	// fine and allocation-free beyond the taken mask.
	taken := make([]bool, m)
	bestJ := -1
	bestFinish := units.Inf()
	for n := 0; n < subset; n++ {
		fastest := -1
		fastestET := units.Inf()
		for j := 0; j < m; j++ {
			if taken[j] {
				continue
			}
			if et := t.Size.TimeOn(s.Rate(j)); et < fastestET {
				fastestET = et
				fastest = j
			}
		}
		if fastest < 0 {
			break
		}
		taken[fastest] = true
		finish := (s.PendingLoad(fastest) + t.Size).TimeOn(s.Rate(fastest))
		if finish < bestFinish {
			bestFinish = finish
			bestJ = fastest
		}
	}
	if bestJ < 0 {
		return 0
	}
	return bestJ
}

// Sufferage is the batch-mode heuristic of Maheswaran et al.: for each
// unassigned task compute the difference ("sufferage") between its
// best and second-best completion times; commit the task that would
// suffer most if denied its best processor. Θ(n²·M) per batch.
type Sufferage struct{}

// Name implements Scheduler.
func (Sufferage) Name() string { return "SUF" }

// ScheduleBatch implements Batch.
func (Sufferage) ScheduleBatch(batch []task.Task, s State) (Assignment, units.Seconds) {
	loads, rates := snapshot(s)
	out := NewAssignment(len(loads))
	remaining := append([]task.Task(nil), batch...)
	for len(remaining) > 0 {
		bestIdx := -1
		bestSufferage := -1.0
		bestProc := 0
		for i, t := range remaining {
			first, second := units.Inf(), units.Inf()
			firstJ := -1
			for j, l := range loads {
				finish := (l + t.Size).TimeOn(rates[j])
				switch {
				case finish < first:
					second = first
					first = finish
					firstJ = j
				case finish < second:
					second = finish
				}
			}
			if firstJ < 0 {
				continue
			}
			suf := float64(second - first)
			if second.IsInf() {
				// Only one viable processor: infinite sufferage; must
				// win ties deterministically by batch order.
				suf = 1e308
			}
			if suf > bestSufferage {
				bestSufferage = suf
				bestIdx = i
				bestProc = firstJ
			}
		}
		if bestIdx < 0 {
			// No viable processor for any remaining task (all rates
			// zero): dump the rest on processor 0 in order.
			for _, t := range remaining {
				out[0] = append(out[0], t)
			}
			break
		}
		t := remaining[bestIdx]
		out[bestProc] = append(out[bestProc], t)
		loads[bestProc] += t.Size
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return out, 0
}
