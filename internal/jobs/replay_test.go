package jobs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// TestLiveEqualsReplay is the property the one-writer structure exists
// for: at every point of a dispatcher's life, the state it holds is the
// state its journal says. A journaled dispatcher (snapshot every five
// records, so snapshot+tail is the normal case) is driven through a
// seeded random sequence of submissions, task completions in shuffled
// order, worker losses, cancels and restarts under each admission
// policy; admission happens as it does in service, inside the other
// transitions. After every step a copy of the journal directory is
//
//   - replayed into a fresh dispatcher without the restart
//     normalisation (ReplayForTest), and
//   - interpreted by referenceReplay, a deliberately naive reading of
//     the record grammar that shares no code with the apply functions,
//
// and all three must agree on every job's durable fields, the tenant
// ledger and the lifetime counters, remaining tasks compared as sets.
// The reference is what gives the test teeth: live and replay run the
// same apply functions, so only an independent reading of "what the
// record says" notices one of them drifting from it.
func TestLiveEqualsReplay(t *testing.T) {
	for _, policy := range []Policy{PolicyFIFO, PolicyPriority, PolicyFair} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", policy, seed), func(t *testing.T) {
				liveEqualsReplay(t, policy, seed)
			})
		}
	}
}

func liveEqualsReplay(t *testing.T, policy Policy, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cfg := Config{
		NewScheduler:  journalFactory,
		Policy:        policy,
		Weights:       map[string]float64{"a": 1, "b": 2, "c": 3},
		MaxActive:     2,
		RetryBudget:   3,
		JournalDir:    dir,
		SnapshotEvery: 5,
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { d.Close() }()

	// pick returns a random job satisfying ok, or nil.
	pick := func(ok func(*job) bool) *job {
		var fit []*job
		for _, j := range d.order {
			if ok(j) {
				fit = append(fit, j)
			}
		}
		if len(fit) == 0 {
			return nil
		}
		return fit[rng.Intn(len(fit))]
	}
	dispatchable := func(j *job) bool { return j.State == StateRunning && !j.queue.Empty() }
	// take stands in for a batch going out: n of the job's unscheduled
	// tasks in shuffled order, the rest back in the queue unsent.
	take := func(j *job, n int) []task.Task {
		ts := j.queue.PopN(j.queue.Len())
		rng.Shuffle(len(ts), func(a, b int) { ts[a], ts[b] = ts[b], ts[a] })
		d.UnsentLocked(j, ts[n:])
		return ts[:n]
	}

	for step := 0; step < 120; step++ {
		now := time.Now()
		worker := fmt.Sprintf("w%d", rng.Intn(3))
		op := ""
		switch r := rng.Intn(100); {
		case r < 25:
			op = "submit"
			sub := dist.JobSubmission{
				Tenant:   string(rune('a' + rng.Intn(3))),
				Priority: rng.Intn(4),
			}
			for i, n := 0, 1+rng.Intn(6); i < n; i++ {
				sub.Tasks = append(sub.Tasks, task.Task{ID: task.ID(i), Size: units.MFlops(rng.Float64() * 100)})
			}
			if rng.Intn(3) == 0 {
				budget := rng.Intn(3)
				sub.RetryBudget = &budget
			}
			if _, err := d.Submit(sub); err != nil {
				t.Fatalf("step %d: Submit: %v", step, err)
			}
		case r < 70:
			op = "task done"
			d.mu.Lock()
			if j := pick(dispatchable); j != nil {
				d.DoneLocked(j, worker, take(j, 1)[0], units.Seconds(0.5+rng.Float64()), now)
			}
			d.mu.Unlock()
		case r < 85:
			op = "worker lost"
			d.mu.Lock()
			if j := pick(dispatchable); j != nil {
				d.LostLocked(j, worker, take(j, 1+rng.Intn(j.queue.Len())), now)
			}
			d.mu.Unlock()
		case r < 95:
			op = "cancel"
			d.mu.Lock()
			j := pick(func(j *job) bool { return !j.terminal() })
			d.mu.Unlock()
			if j != nil {
				if _, err := d.Cancel(j.ID); err != nil {
					t.Fatalf("step %d: Cancel: %v", step, err)
				}
			}
		default:
			op = "restart"
			d.Close()
			if d, err = New(cfg); err != nil {
				t.Fatalf("step %d: New after restart: %v", step, err)
			}
		}

		live := normalised(d.DurableStateForTest())
		onDisk := copyDir(t, dir)
		replayed, err := ReplayForTest(cfg, onDisk)
		if err != nil {
			t.Fatalf("step %d (%s): replay: %v", step, op, err)
		}
		got := normalised(replayed.DurableStateForTest())
		replayed.Close()
		if !reflect.DeepEqual(got, live) {
			t.Fatalf("step %d (%s): replayed state differs from live state\nreplay %s\nlive   %s",
				step, op, mustJSON(got), mustJSON(live))
		}
		if want := normalised(referenceReplay(t, onDisk)); !reflect.DeepEqual(live, want) {
			t.Fatalf("step %d (%s): live state differs from what the records say\nlive    %s\nrecords %s",
				step, op, mustJSON(live), mustJSON(want))
		}
	}
}

// referenceReplay reads a journal directory and interprets snapshot +
// tail on the wire structs alone, straight from the record grammar in
// docs/job-journal.md. It is the oracle, so it must not call into the
// dispatcher.
func referenceReplay(t *testing.T, dir string) *JournalSnapshot {
	t.Helper()
	jr, snap, tail, err := openJournal(dir, 0)
	if err != nil {
		t.Fatalf("reference: open journal: %v", err)
	}
	jr.f.Close()
	out := &JournalSnapshot{}
	if snap != nil {
		out = snap
	}
	find := func(id string) *JournalJob {
		for i := range out.Jobs {
			if out.Jobs[i].ID == id {
				return &out.Jobs[i]
			}
		}
		t.Fatalf("reference: record names unknown job %s", id)
		return nil
	}
	ledger := func(tenant string, served *float64) {
		if served == nil {
			return
		}
		if out.Served == nil {
			out.Served = map[string]float64{}
		}
		out.Served[tenant] = *served
	}
	for _, rec := range tail {
		if rec.LSN <= out.LSN {
			continue
		}
		switch rec.Kind {
		case JournalKindSubmit:
			out.Jobs = append(out.Jobs, rec.Submit.Job)
			out.TasksSubmitted += rec.Submit.Job.Total
			out.NextSeq = max(out.NextSeq, rec.Submit.Job.Seq)
			ledger(rec.Submit.Job.Tenant, rec.Submit.Served)
		case JournalKindAdmit:
			j := find(rec.Admit.ID)
			j.State, j.StartedAt = StateRunning, rec.Admit.At
			j.Charge, j.ServedWork = rec.Admit.Charge, 0
			ledger(j.Tenant, rec.Admit.Served)
		case JournalKindTask:
			j := find(rec.Task.ID)
			j.Completed++
			j.ServedWork += rec.Task.Work
			j.Elapsed += rec.Task.Elapsed
			var tally *dist.JobWorkerResult
			for i := range j.Workers {
				if j.Workers[i].Name == rec.Task.Worker {
					tally = &j.Workers[i]
				}
			}
			if tally == nil {
				j.Workers = append(j.Workers, dist.JobWorkerResult{Name: rec.Task.Worker})
				tally = &j.Workers[len(j.Workers)-1]
			}
			tally.Tasks++
			tally.Work += rec.Task.Work
			var rest []task.Task
			for _, w := range j.Tasks {
				if w.ID != rec.Task.Task {
					rest = append(rest, w)
				}
			}
			j.Tasks = rest
			out.TasksDone++
		case JournalKindRetry:
			find(rec.Retry.ID).Retries += rec.Retry.Tasks
			out.Reissued += rec.Retry.Tasks
		case JournalKindFinish:
			j := find(rec.Finish.ID)
			j.State, j.Error, j.FinishedAt = rec.Finish.State, rec.Finish.Error, rec.Finish.At
			j.Charge, j.ServedWork, j.Tasks = 0, 0, nil
			switch rec.Finish.State {
			case StateDone:
				out.Done++
			case StateFailed:
				out.Failed++
			case StateCancelled:
				out.Cancelled++
			}
			ledger(j.Tenant, rec.Finish.Served)
		}
	}
	return out
}

// normalised puts a rendered state into the form the comparison wants:
// no LSN (only a journal has one), each job's remaining tasks in ID
// order (live queues are reshuffled by reissue, replay keeps submission
// order) and its worker tallies in name order.
func normalised(s *JournalSnapshot) *JournalSnapshot {
	s.LSN = 0
	for i := range s.Jobs {
		j := &s.Jobs[i]
		sort.Slice(j.Tasks, func(a, b int) bool { return j.Tasks[a].ID < j.Tasks[b].ID })
		sort.Slice(j.Workers, func(a, b int) bool { return j.Workers[a].Name < j.Workers[b].Name })
		if len(j.Tasks) == 0 {
			j.Tasks = nil
		}
	}
	return s
}

func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	for _, name := range []string{journalFile, snapshotFile} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("copy journal: %v", err)
		}
		if err := os.WriteFile(filepath.Join(out, name), b, 0o644); err != nil {
			t.Fatalf("copy journal: %v", err)
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// TestReplayRetiresInOrder: the completed tasks of a tail are dropped
// from the rebuilt queue in one pass that keeps what remains in
// submission order — the order the job's scheduler will see.
func TestReplayRetiresInOrder(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	cfg.SnapshotEvery = -1
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	info := mustSubmit(t, d, "a", 1, 2, 3, 4, 5, 6, 7, 8)
	d.mu.Lock()
	j := d.jobsByID[info.ID]
	for _, id := range []task.ID{6, 1, 3} {
		d.DoneLocked(j, "w", task.Task{ID: id, Size: 1}, 1, time.Now())
	}
	d.mu.Unlock()

	replayed, err := ReplayForTest(cfg, dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer replayed.Close()
	var got []task.ID
	for _, w := range replayed.DurableStateForTest().Jobs[0].Tasks {
		got = append(got, w.ID)
	}
	if want := []task.ID{0, 2, 4, 5, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("remaining tasks after replay %v, want %v", got, want)
	}
}

// TestNoJournalBuildsNoRecord: without a journal the per-task
// transition applies a stack payload and allocates nothing — the record
// is only built when it is written.
func TestNoJournalBuildsNoRecord(t *testing.T) {
	d, err := New(Config{NewScheduler: journalFactory})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	info := mustSubmit(t, d, "a", make([]float64, 2000)...)
	d.mu.Lock()
	defer d.mu.Unlock()
	j, now := d.jobsByID[info.ID], time.Now()
	done := func() { d.DoneLocked(j, "w", task.Task{ID: 1, Size: 1}, 1, now) }
	done() // the worker's tally exists from here on
	if n := testing.AllocsPerRun(1000, done); n != 0 {
		t.Errorf("DoneLocked without a journal allocates %v times per task, want 0", n)
	}
}

// TestJournaledDoneBuildsNoRecord: with a journal open the per-task
// transition stages its record from the journal's one reused record
// and writes it, allocating nothing either.
func TestJournaledDoneBuildsNoRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes encoding/json's pooled state allocate")
	}
	cfg := journalConfig(t.TempDir())
	cfg.SnapshotEvery = -1 // a snapshot is not the per-task cost
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	info := mustSubmit(t, d, "a", make([]float64, 2000)...)
	d.mu.Lock()
	defer d.mu.Unlock()
	j, now := d.jobsByID[info.ID], time.Now()
	done := func() { d.DoneLocked(j, "w", task.Task{ID: 1, Size: 1}, 1, now) }
	done() // the worker's tally exists from here on
	if n := testing.AllocsPerRun(1000, done); n != 0 {
		t.Errorf("journaled DoneLocked allocates %v times per task, want 0", n)
	}
	if d.jour.failed != nil {
		t.Fatal(d.jour.failed)
	}
}
