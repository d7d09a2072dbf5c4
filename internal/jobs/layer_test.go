package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pnsched/internal/dist"
	"pnsched/internal/rng"
	"pnsched/internal/task"
	"pnsched/internal/telemetry"
	"pnsched/internal/units"
)

// BenchmarkSubmitJournal64 submits 64-task jobs to a journaled
// dispatcher with no workers, so every job queues: the layer row of
// bench/'s jobs.submit_journal_us_q2000 probe. The queue restarts
// empty every 2000 jobs, off the clock, so the snapshots the default
// cadence writes cover the same depths however large b.N grows.
func BenchmarkSubmitJournal64(b *testing.B) {
	r := rng.New(1)
	sub := dist.JobSubmission{Tenant: "t1"}
	for i := range 64 {
		sub.Tasks = append(sub.Tasks, task.Task{ID: task.ID(i), Size: units.MFlops(r.Float64() * 2000)})
	}
	var d *Dispatcher
	defer func() { d.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if i%2000 == 0 {
			b.StopTimer()
			if d != nil {
				d.Close()
			}
			var err error
			if d, err = New(journalConfig(b.TempDir())); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := d.Submit(sub); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeJournalTask stages one task record, the record every
// finished task appends, as appendLocked does: encoded into a buffer
// kept across records. Its allocs/op is the staging path's.
func BenchmarkEncodeJournalTask(b *testing.B) {
	rec := &JournalRecord{LSN: 123456, Kind: JournalKindTask,
		Task: &JournalTask{ID: "job-0042", Task: 17, Worker: "w3", Elapsed: 0.0123456789, Work: 1234.5678}}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := enc.Encode(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoneJournal64 runs 64-task jobs, one Submit and Wait at a
// time, on a journaled dispatcher with four loopback workers whose tasks
// take no time: the done path — read loop, pool lock, task record,
// journal write — is the cost per task. It reports ns/task, allocs/task
// and, where the dispatcher counts its journal writes, records/write.
func BenchmarkDoneJournal64(b *testing.B) {
	reg := telemetry.NewRegistry()
	cfg := journalConfig(b.TempDir())
	cfg.Metrics = reg
	d, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go d.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dist.RunWorker(ctx, ln.Addr().String(), dist.WorkerConfig{Name: fmt.Sprintf("w%d", i), Rate: 100,
				Execute: func(task.Task) time.Duration { return 0 }})
		}()
	}
	defer func() { cancel(); d.Close(); wg.Wait() }()
	for len(d.Snapshot().Workers) < 4 {
		time.Sleep(time.Millisecond)
	}
	r := rng.New(1)
	sub := dist.JobSubmission{Tenant: "t1"}
	for i := range 64 {
		sub.Tasks = append(sub.Tasks, task.Task{ID: task.ID(i), Size: units.MFlops(r.Float64() * 2000)})
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		info, err := d.Submit(sub)
		if err == nil {
			info, err = d.Wait(info.ID, time.Minute)
		}
		if err != nil || info.State != StateDone {
			b.Fatalf("job %+v: %v", info, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	tasks := float64(b.N * len(sub.Tasks))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tasks, "ns/task")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/tasks, "allocs/task")
	var m strings.Builder
	reg.WritePrometheus(&m)
	var records, writes float64
	for _, line := range strings.Split(m.String(), "\n") {
		fmt.Sscanf(line, "pnsched_jobs_journal_records_total %g", &records)
		fmt.Sscanf(line, "pnsched_jobs_journal_writes_total %g", &writes)
	}
	if writes > 0 {
		b.ReportMetric(records/writes, "records/write")
	}
}
