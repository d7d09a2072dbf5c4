package jobs_test

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/jobs"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// testFactory is the scheduler factory the dispatcher tests inject:
// every job gets the MX min-max heuristic regardless of spec.
func testFactory(json.RawMessage) (sched.Batch, error) {
	return sched.MX{}, nil
}

// oneTask builds a single-task submission of the given size for a
// tenant.
func oneTask(tenant string, size float64) dist.JobSubmission {
	return dist.JobSubmission{
		Tenant: tenant,
		Tasks:  []task.Task{{ID: 0, Size: units.MFlops(size)}},
	}
}

// runningJob returns the ID of the single running job, or "" if none.
func runningJob(t *testing.T, d *jobs.Dispatcher) string {
	t.Helper()
	id := ""
	for _, info := range d.Queue() {
		if info.State == jobs.StateRunning {
			if id != "" {
				t.Fatalf("two running jobs: %s and %s", id, info.ID)
			}
			id = info.ID
		}
	}
	return id
}

// admissionOrder submits the given jobs to a fresh workerless
// dispatcher and walks the admission order by cancelling whichever job
// is running until the queue drains. With MaxActive=1 and no workers,
// exactly one job runs at a time and never finishes on its own, so the
// observed sequence is precisely the policy's ordering. Each job is
// marked fully served before its cancel so the fair-share ledger keeps
// the admission charge, as if the job ran to completion (cancelling an
// unserved job refunds its charge — TestFairShareRefundOnCancel pins
// that separately).
func admissionOrder(t *testing.T, cfg jobs.Config, subs []dist.JobSubmission) []string {
	t.Helper()
	cfg.NewScheduler = testFactory
	d, err := jobs.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()

	ids := map[string]string{} // job ID → label tenant#n
	counts := map[string]int{}
	for _, sub := range subs {
		info, err := d.Submit(sub)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		counts[sub.Tenant]++
		ids[info.ID] = fmt.Sprintf("%s%d", sub.Tenant, counts[sub.Tenant])
	}

	var order []string
	for range subs {
		id := runningJob(t, d)
		if id == "" {
			t.Fatalf("no running job after %v", order)
		}
		order = append(order, ids[id])
		d.MarkServedForTest(id)
		if _, err := d.Cancel(id); err != nil {
			t.Fatalf("Cancel(%s): %v", id, err)
		}
	}
	if left := runningJob(t, d); left != "" {
		t.Fatalf("job %s still running after draining", left)
	}
	return order
}

func TestAdmissionFIFO(t *testing.T) {
	order := admissionOrder(t, jobs.Config{Policy: jobs.PolicyFIFO}, []dist.JobSubmission{
		oneTask("a", 100), oneTask("b", 100), oneTask("a", 100),
	})
	want := []string{"a1", "b1", "a2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("FIFO order %v, want %v", order, want)
	}
}

func TestAdmissionPriority(t *testing.T) {
	subs := []dist.JobSubmission{
		oneTask("a", 100), // admitted immediately — priority applies to the rest
		{Tenant: "a", Priority: 1, Tasks: []task.Task{{ID: 0, Size: 100}}},
		{Tenant: "b", Priority: 5, Tasks: []task.Task{{ID: 0, Size: 100}}},
		{Tenant: "a", Priority: 5, Tasks: []task.Task{{ID: 0, Size: 100}}},
		{Tenant: "b", Priority: 0, Tasks: []task.Task{{ID: 0, Size: 100}}},
	}
	order := admissionOrder(t, jobs.Config{Policy: jobs.PolicyPriority}, subs)
	// Highest priority first; the 5s tie-break by submission order.
	want := []string{"a1", "b1", "a3", "a2", "b2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("priority order %v, want %v", order, want)
	}
}

func TestAdmissionFairShare(t *testing.T) {
	// Equal-size jobs, tenant a weighted 3× tenant b: per unit of
	// virtual time a gets three admissions to b's one.
	subs := []dist.JobSubmission{
		oneTask("a", 100), oneTask("b", 100), oneTask("a", 100),
		oneTask("a", 100), oneTask("b", 100), oneTask("a", 100),
	}
	order := admissionOrder(t, jobs.Config{
		Policy:  jobs.PolicyFair,
		Weights: map[string]float64{"a": 3, "b": 1},
	}, subs)
	// Stride walk: a1 (vt_a=33); b's first submission is lifted level
	// (vt_b=33) and wins its tie with a2 by submission order; then the
	// 3:1 weight plays out — a2 (67), a3 (100), a4 (133) all admit
	// before b2 (vt_b=133 after b1). Three a-jobs per b-job, exactly
	// the weights.
	want := []string{"a1", "b1", "a2", "a3", "a4", "b2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("fair-share order %v, want %v", order, want)
	}
}

func TestFairShareLiftsReturningTenant(t *testing.T) {
	// Tenant c arrives after a has already been served: without the
	// lift, c's zero virtual time would let it jump every queued a job.
	// With it, c is lifted level and the tenants alternate from the
	// arrival point.
	d, err := jobs.New(jobs.Config{
		NewScheduler: testFactory,
		Policy:       jobs.PolicyFair,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()

	a1, _ := d.Submit(oneTask("a", 100)) // running; vt_a = 100
	a2, _ := d.Submit(oneTask("a", 100))
	c1, _ := d.Submit(oneTask("c", 100)) // lifted to vt 100, ties resolve to a2
	c2, _ := d.Submit(oneTask("c", 100))

	want := []string{a1.ID, a2.ID, c1.ID, c2.ID}
	for i, id := range want {
		got := runningJob(t, d)
		if got != id {
			t.Fatalf("step %d: running %s, want %s", i, got, id)
		}
		d.MarkServedForTest(got) // keep the charge: served, not refunded
		if _, err := d.Cancel(got); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	d, err := jobs.New(jobs.Config{NewScheduler: testFactory})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()

	if _, err := d.Submit(dist.JobSubmission{}); err == nil {
		t.Error("empty submission accepted")
	}
	if _, err := d.Submit(dist.JobSubmission{
		Tasks: []task.Task{{ID: 1, Size: 5}, {ID: 1, Size: 5}},
	}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate task IDs accepted: %v", err)
	}
	// NaN and +Inf pass a plain size < 0 check, and neither can be
	// encoded into a journal record.
	for _, size := range []float64{-5, math.NaN(), math.Inf(1)} {
		if _, err := d.Submit(dist.JobSubmission{
			Tasks: []task.Task{{ID: 0, Size: 5}, {ID: 1, Size: units.MFlops(size)}},
		}); err == nil || !strings.Contains(err.Error(), "invalid task") {
			t.Errorf("task of size %v accepted: %v", size, err)
		}
	}
	neg := -1
	if _, err := d.Submit(dist.JobSubmission{
		RetryBudget: &neg,
		Tasks:       []task.Task{{ID: 0, Size: 5}},
	}); err == nil {
		t.Error("negative retry budget accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := jobs.New(jobs.Config{}); err == nil {
		t.Error("nil NewScheduler accepted")
	}
	if _, err := jobs.New(jobs.Config{NewScheduler: testFactory, Policy: "lifo"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := jobs.New(jobs.Config{
		NewScheduler: testFactory,
		Weights:      map[string]float64{"a": -1},
	}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestCancelAndResultStates(t *testing.T) {
	d, err := jobs.New(jobs.Config{NewScheduler: testFactory})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()

	running, _ := d.Submit(oneTask("a", 100))
	queued, _ := d.Submit(oneTask("a", 100))

	if info, _ := d.Status(queued.ID); info.State != jobs.StateQueued || info.Position != 1 {
		t.Fatalf("queued job: state %s position %d", info.State, info.Position)
	}
	if _, err := d.Result(running.ID); err == nil {
		t.Error("Result of a running job succeeded")
	}

	info, err := d.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if info.State != jobs.StateCancelled {
		t.Fatalf("cancelled queued job in state %s", info.State)
	}
	if _, err := d.Cancel(queued.ID); err == nil {
		t.Error("double cancel succeeded")
	}
	res, err := d.Result(queued.ID)
	if err != nil {
		t.Fatalf("Result of cancelled job: %v", err)
	}
	if res.State != jobs.StateCancelled || res.Completed != 0 || res.Duration != 0 {
		t.Fatalf("cancelled result: %+v", res)
	}
	if _, err := d.Status("job-9999"); err == nil {
		t.Error("Status of unknown job succeeded")
	}
}

func TestWaitTimesOut(t *testing.T) {
	d, err := jobs.New(jobs.Config{NewScheduler: testFactory})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	info, _ := d.Submit(oneTask("a", 100))
	if _, err := d.Wait(info.ID, 20*time.Millisecond); err == nil {
		t.Fatal("Wait returned without the job finishing")
	}
}

func TestRetentionEvictsOldTerminalJobs(t *testing.T) {
	// Grace disabled: this test pins the cap itself, TestRetainGrace*
	// pin the grace window.
	d, err := jobs.NewRetainingForTest(jobs.Config{NewScheduler: testFactory}, 2, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		info, err := d.Submit(oneTask("a", 100))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, info.ID)
		if _, err := d.Cancel(info.ID); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
	}
	if _, err := d.Status(ids[0]); err == nil {
		t.Errorf("oldest terminal job %s still retained", ids[0])
	}
	if _, err := d.Status(ids[3]); err != nil {
		t.Errorf("newest terminal job %s evicted: %v", ids[3], err)
	}
	if got := len(d.Queue()); got != 2 {
		t.Errorf("retained %d jobs, want 2", got)
	}
}

func TestRetentionEvictsInFinishOrder(t *testing.T) {
	// Retention evicts the job that finished longest ago: here the one
	// submitted second, cancelled while still queued.
	d, err := jobs.NewRetainingForTest(jobs.Config{NewScheduler: testFactory}, 1, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()

	first, _ := d.Submit(oneTask("a", 100)) // running
	second, _ := d.Submit(oneTask("a", 100))
	for _, id := range []string{second.ID, first.ID} {
		if _, err := d.Cancel(id); err != nil {
			t.Fatalf("Cancel(%s): %v", id, err)
		}
	}
	if _, err := d.Status(second.ID); err == nil {
		t.Errorf("%s, the first to finish, still retained", second.ID)
	}
	if _, err := d.Status(first.ID); err != nil {
		t.Errorf("%s, the last to finish, evicted: %v", first.ID, err)
	}
}

func TestFairShareRefundOnCancel(t *testing.T) {
	// Regression for the admission-charge leak: tenant a's big job is
	// charged 300 at admission and then cancelled with nothing served.
	// Without the refund, the dead charge leaves vt_a at 300 and b's
	// queued job (vt_b lifted to 300, earlier submission wins the tie)
	// would cut ahead of a's next job; with it, a2 admits first and
	// the post-drain ledger is clean.
	d, err := jobs.New(jobs.Config{
		NewScheduler: testFactory,
		Policy:       jobs.PolicyFair,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()

	a1, _ := d.Submit(oneTask("a", 300)) // running; vt_a = 300
	b1, _ := d.Submit(oneTask("b", 100)) // lifted level: vt_b = 300
	a2, _ := d.Submit(oneTask("a", 100))

	if _, err := d.Cancel(a1.ID); err != nil { // nothing served: full refund, vt_a = 0
		t.Fatalf("Cancel(%s): %v", a1.ID, err)
	}
	if got := runningJob(t, d); got != a2.ID {
		t.Fatalf("after refunded cancel %s runs, want %s (refund missing?)", got, a2.ID)
	}
	// The ledger kept nothing of a1's 300: only a2's fresh admission
	// charge of 100 remains.
	if got := d.ServedForTest("a"); got != 100 {
		t.Fatalf("tenant a ledger %v after refund + a2 admission, want 100", got)
	}
	d.MarkServedForTest(a2.ID)
	if _, err := d.Cancel(a2.ID); err != nil {
		t.Fatalf("Cancel(%s): %v", a2.ID, err)
	}
	if got := runningJob(t, d); got != b1.ID {
		t.Fatalf("after a drained %s runs, want %s", got, b1.ID)
	}
}

func TestRetainGraceShieldsFreshFinishers(t *testing.T) {
	// Regression for the retention-vs-wait race: with the smallest
	// possible retention a just-cancelled job must still answer Status
	// (a polling `pnjobs submit -wait` client reads the terminal state
	// at least once) — the grace window shields it from eviction.
	d, err := jobs.NewRetainingForTest(jobs.Config{NewScheduler: testFactory}, 0, jobs.DefaultRetainGrace)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		info, err := d.Submit(oneTask("a", 100))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, info.ID)
		if _, err := d.Cancel(info.ID); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
	}
	for _, id := range ids {
		info, err := d.Status(id)
		if err != nil {
			t.Errorf("fresh terminal job %s already evicted: %v", id, err)
		} else if info.State != jobs.StateCancelled {
			t.Errorf("job %s in state %s, want cancelled", id, info.State)
		}
	}
}
