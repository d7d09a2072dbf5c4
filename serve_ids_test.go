package pnsched_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"pnsched"
)

// TestServeReusedTaskIDs submits two workloads numbered from 0 back to
// back onto one worker. Both are in flight on the same connection at
// once, so the wire must not name a task by its own ID: every one of
// the 16 tasks has to complete, none may shadow another.
func TestServeReusedTaskIDs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec, err := pnsched.NewSpec("MM", pnsched.WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := pnsched.Serve(ctx, spec)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		done <- pnsched.RunWorker(ctx, srv.Addr().String(), pnsched.WorkerConfig{
			Name: "only", Rate: 100, TimeScale: 1e-4,
		})
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Workers != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
	}

	sizes := pnsched.Uniform{Lo: 100, Hi: 500}
	for seed := range uint64(2) {
		srv.Submit(pnsched.GenerateTasks(8, sizes, pnsched.NewRNG(seed+1)))
	}
	if err := srv.Wait(10 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st := srv.Stats(); st.Submitted != 16 || st.Completed != 16 || st.Reissued != 0 {
		t.Errorf("Stats = %+v, want 16 submitted and completed, none reissued", st)
	}
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("RunWorker: %v", err)
	}
}

// TestServeRejectsInvalidTasks: a task with a negative ID, or a
// negative, NaN or infinite size, is refused at Submit with nothing
// queued. Accepted, such a task reached the worker, which hung up on
// the assignment as invalid; every task of the batch was then
// reissued and none completed.
func TestServeRejectsInvalidTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := pnsched.Serve(ctx, pnsched.MustSpec("MM"))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		done <- pnsched.RunWorker(ctx, srv.Addr().String(), pnsched.WorkerConfig{
			Name: "only", Rate: 100, TimeScale: 1e-4,
		})
	}()

	three := func(id1 pnsched.TaskID, size1 pnsched.MFlops) []pnsched.Task {
		return []pnsched.Task{{ID: 0, Size: 10}, {ID: id1, Size: size1}, {ID: 2, Size: 10}}
	}
	for name, bad := range map[string][]pnsched.Task{
		"negative size": three(1, -5),
		"NaN size":      three(1, pnsched.MFlops(math.NaN())),
		"infinite size": three(1, pnsched.MFlops(math.Inf(1))),
		"negative ID":   three(-1, 10),
	} {
		if err := srv.Submit(bad); err == nil {
			t.Errorf("%s: Submit accepted %v", name, bad)
		}
	}
	if st := srv.Stats(); st.Submitted != 0 {
		t.Fatalf("refused submissions queued %d tasks", st.Submitted)
	}
	if err := srv.Submit(three(1, 10)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := srv.Wait(10 * time.Second); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st := srv.Stats(); st.Submitted != 3 || st.Completed != 3 || st.Reissued != 0 {
		t.Errorf("Stats = %+v, want 3 submitted and completed, none reissued", st)
	}
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("RunWorker: %v", err)
	}
}
