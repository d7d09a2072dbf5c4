package pnsched_test

import (
	"context"
	"errors"
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
