package jobs

import (
	"fmt"
	"net"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// This file is the dispatcher as a dist.Owner: the answers the worker
// pool needs from whoever owns it. A lease is the *job a worker
// executes for.

// LeaseLocked implements dist.Owner: a free worker goes to the active
// job furthest below its weight-proportional share.
func (d *Dispatcher) LeaseLocked(*dist.Worker) any {
	if len(d.active) == 0 {
		return nil
	}
	best := d.active[0]
	bestKey := float64(best.leased) / d.weight(best.Tenant)
	for _, j := range d.active[1:] {
		if key := float64(j.leased) / d.weight(j.Tenant); key < bestKey {
			best, bestKey = j, key
		}
	}
	best.leased++
	return best
}

// LiveLocked implements dist.Owner: a job takes batches while it runs.
func (d *Dispatcher) LiveLocked(lease any) bool {
	return lease.(*job).State == StateRunning
}

// BatchLocked implements dist.Owner; invocations count per job.
func (d *Dispatcher) BatchLocked(lease any) int {
	j := lease.(*job)
	d.durable.Batches++
	j.batches++
	return j.batches
}

// WireIDLocked implements dist.Owner: each dispatched task gets a fresh
// dispatcher-global wire ID, so tasks of different jobs — whose own ID
// spaces may collide — never alias on one connection.
func (d *Dispatcher) WireIDLocked(task.Task) int32 {
	d.durable.NextWire++
	return d.durable.NextWire
}

// DoneLocked implements dist.Owner: the task record — counters and
// per-worker tallies — and, when this was the job's last task, the
// job's completion.
func (d *Dispatcher) DoneLocked(lease any, worker string, t task.Task, elapsed units.Seconds, now time.Time) emits {
	j := lease.(*job)
	p := JournalTask{ID: j.ID, Task: t.ID, Worker: worker, Elapsed: float64(elapsed), Work: float64(t.Size)}
	d.applyTaskLocked(j, &p)
	if d.jour != nil {
		d.appendLocked(p.record())
	}
	if j != d.open && j.State == StateRunning && j.Completed == j.Total {
		return d.finishLocked(j, StateDone, "", now)
	}
	return nil
}

// LostLocked implements dist.Owner. Reissue is charged against the
// job's retry budget — a job that exhausts it fails rather than
// retrying forever; the open job's budget is unlimited.
func (d *Dispatcher) LostLocked(lease any, worker string, lost []task.Task, now time.Time) (int, emits) {
	j, _ := lease.(*job)
	if j == nil {
		return 0, nil // the worker was free
	}
	if j.leased > 0 {
		j.leased--
	}
	if len(lost) == 0 {
		return 0, nil
	}
	j.queue.PushAll(lost)
	p := JournalRetry{ID: j.ID, Tasks: len(lost)}
	d.applyRetryLocked(j, &p)
	if d.jour != nil {
		d.appendLocked(p.record())
	}
	var ems emits
	if j.Retries > j.Budget {
		ems = d.finishLocked(j, StateFailed,
			fmt.Sprintf("retry budget exhausted: %d reissues exceed budget %d (worker %q lost)",
				j.Retries, j.Budget, worker), now)
	}
	return len(lost), ems
}

// UnsentLocked implements dist.Owner: the tasks were never sent, so
// they go back silently — no retry is charged.
func (d *Dispatcher) UnsentLocked(lease any, ts []task.Task) {
	lease.(*job).queue.PushAll(ts)
}

// StatsLocked implements dist.Owner. The open job is no job to count:
// under it the Jobs block stays nil.
func (d *Dispatcher) StatsLocked(snap *dist.Snapshot) {
	snap.Submitted = d.durable.TasksSubmitted
	snap.Completed = d.durable.TasksDone
	snap.Reissued = d.durable.Reissued
	snap.Batches = d.durable.Batches
	if d.open == nil {
		snap.Jobs = &dist.JobCounts{
			Queued:    len(d.pending),
			Running:   len(d.active),
			Done:      d.durable.Done,
			Failed:    d.durable.Failed,
			Cancelled: d.durable.Cancelled,
		}
	}
	for _, j := range d.pending {
		snap.Pending += j.queue.Len()
	}
	for _, j := range d.active {
		snap.Pending += j.queue.Len()
	}
}

// ServeRequest implements dist.Owner with the job_* exchanges: a single
// versioned reply echoing the request type, carrying either the result
// or an application-level Error string, then close. Every refusal of
// what a request asks for — a bad task, a missing payload (an empty
// submission), an empty or unknown job to cancel or fetch — is
// reported in-band, in the words the same in-process call returns, so
// clients can distinguish "no such job" from "server does not speak
// 1.3". A dispatcher running the open job takes no job requests; the
// pool rejects them like any other non-handshake.
func (d *Dispatcher) ServeRequest(conn net.Conn, m *dist.Message) bool {
	if d.open != nil {
		return false
	}
	reply := dist.Message{Type: m.Type}
	one := func(info dist.JobInfo, err error) error {
		if err == nil {
			reply.Jobs = []dist.JobInfo{info}
		}
		return err
	}
	var err error
	switch m.Type {
	case dist.MsgJobSubmit:
		var sub dist.JobSubmission
		if m.Job != nil {
			sub = *m.Job
		}
		err = one(d.Submit(sub))
	case dist.MsgJobStatus:
		if m.JobID == "" {
			reply.Jobs = d.Queue()
		} else {
			err = one(d.Status(m.JobID))
		}
	case dist.MsgJobCancel:
		err = one(d.Cancel(m.JobID))
	case dist.MsgJobResult:
		var res dist.JobResult
		if res, err = d.Result(m.JobID); err == nil {
			reply.Result = &res
		}
	default:
		return false
	}
	if err != nil {
		reply.Error = err.Error()
	}
	d.pool.Reply(conn, &reply)
	return true
}
