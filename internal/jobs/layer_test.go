package jobs

import (
	"testing"

	"pnsched/internal/dist"
	"pnsched/internal/rng"
	"pnsched/internal/task"
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
