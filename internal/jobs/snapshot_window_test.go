package jobs_test

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/jobs"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// gateSched announces that ScheduleBatch was entered and then holds the
// batch — popped from the job's queue, not yet on any worker — until
// released.
type gateSched struct {
	entered chan struct{}
	release chan struct{}
}

func (s *gateSched) Name() string { return "GATE" }

func (s *gateSched) ScheduleBatch(batch []task.Task, st sched.State) (sched.Assignment, units.Seconds) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	asg := sched.NewAssignment(st.M())
	asg[0] = batch
	return asg, 0
}

// snapshotMidSchedule returns a copy of a journal directory whose
// snapshot was written while job-0001's only batch — all four of its
// tasks — sat inside ScheduleBatch: the pool loop had popped it and
// released the lock for the scheduler, and a second submission's record
// (SnapshotEvery 1) triggered the snapshot.
func snapshotMidSchedule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	gate := &gateSched{entered: make(chan struct{}, 1), release: make(chan struct{})}
	d, addr := startDispatcher(t, jobs.Config{
		NewScheduler:  func(json.RawMessage) (sched.Batch, error) { return gate, nil },
		JournalDir:    dir,
		SnapshotEvery: 1,
	})
	t.Cleanup(func() { close(gate.release) })
	startWorkers(t, addr, 1, 100)
	if _, err := d.Submit(manyTasks("a", 4, 100)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select { // the batch loop waits for the worker to join, then pops the batch
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the scheduler was never handed the batch")
	}
	if _, err := d.Submit(dist.JobSubmission{Tenant: "a", Tasks: []dist.WireTask{{ID: 100, Size: 100}}}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	frozen := t.TempDir()
	if err := os.CopyFS(frozen, os.DirFS(dir)); err != nil {
		t.Fatalf("copy journal: %v", err)
	}
	return frozen
}

// TestSnapshotHoldsBatchBeingScheduled: a running job's durable form
// carries every unfinished task, wherever the task is — queued, on a
// worker, or in the batch the scheduler is deciding with the lock
// released.
func TestSnapshotHoldsBatchBeingScheduled(t *testing.T) {
	dir := snapshotMidSchedule(t)
	d, err := jobs.ReplayForTest(jobs.Config{NewScheduler: testFactory}, dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer d.Close()
	for _, j := range d.DurableStateForTest().Jobs {
		if j.State != jobs.StateRunning && j.State != jobs.StateQueued {
			t.Errorf("%s replayed as %s, want it live", j.ID, j.State)
		}
		if len(j.Tasks) != j.Total-j.Completed {
			t.Errorf("%s state=%s total=%d completed=%d holds %d tasks in its durable form, want %d",
				j.ID, j.State, j.Total, j.Completed, len(j.Tasks), j.Total-j.Completed)
		}
	}
}

// TestCrashWhileSchedulingRecovers is the consequence: a dispatcher
// restarted on that snapshot runs the interrupted job to done, every
// one of its tasks completed exactly once.
func TestCrashWhileSchedulingRecovers(t *testing.T) {
	dir := snapshotMidSchedule(t)
	d, addr := startDispatcher(t, jobs.Config{JournalDir: dir, SnapshotEvery: -1})
	startWorkers(t, addr, 1, 100)
	info, err := d.Wait("job-0001", 10*time.Second)
	if err != nil || info.State != jobs.StateDone || info.Completed != 4 {
		t.Fatalf("job-0001 after the restart: %+v, %v; want done with 4 tasks", info, err)
	}
	// Periodic snapshots are off, so the journal tail is the record of
	// everything since recovery.
	f, err := os.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	completions := map[int32]int{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var rec jobs.JournalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		if rec.Task != nil && rec.Task.ID == "job-0001" {
			completions[rec.Task.Task]++
		}
	}
	for id := int32(0); id < 4; id++ {
		if completions[id] != 1 {
			t.Errorf("task %d of job-0001 completed %d times, want exactly once (all: %v)", id, completions[id], completions)
		}
	}
	if len(completions) != 4 {
		t.Errorf("job-0001 completed tasks %v, want exactly IDs 0..3", completions)
	}
}
