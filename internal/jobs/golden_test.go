package jobs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pnsched/internal/dist"
	"pnsched/internal/task"
)

// The journal goldens pin the durable encoding exactly as the dist
// goldens pin the wire frames: one committed record per kind plus one
// snapshot, byte-for-byte. A failure here means the journal format
// changed — old journals would no longer replay; regenerate
// deliberately with
//
//	go test ./internal/jobs -run TestJournalGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the journal golden files")

// fv returns a *float64 for record literals.
func fv(v float64) *float64 { return &v }

// canonicalJournalRecords is one fully-populated record per kind, with
// every optional field exercised somewhere.
func canonicalJournalRecords() map[string]*JournalRecord {
	return map[string]*JournalRecord{
		"journal_submit": {LSN: 1, Kind: JournalKindSubmit, Submit: &JournalSubmit{
			Job: JournalJob{
				ID:          "job-0007",
				Seq:         7,
				Tenant:      "gold",
				Priority:    2,
				Spec:        json.RawMessage(`{"name":"PN","generations":500}`),
				Scheduler:   "PN",
				State:       StateQueued,
				Total:       2,
				Budget:      64,
				SubmittedAt: 1754560000000000000,
				Tasks:       []task.Task{{ID: 0, Size: 420.5}, {ID: 1, Size: 33}},
			},
			Served: fv(1200.25),
		}},
		"journal_admit": {LSN: 2, Kind: JournalKindAdmit, Admit: &JournalAdmit{
			ID:     "job-0007",
			At:     1754560001000000000,
			Charge: 453.5,
			Served: fv(1653.75),
		}},
		"journal_task": {LSN: 3, Kind: JournalKindTask, Task: &JournalTask{
			ID:      "job-0007",
			Task:    0,
			Worker:  "node7",
			Elapsed: 4.806,
			Work:    420.5,
		}},
		"journal_retry": {LSN: 4, Kind: JournalKindRetry, Retry: &JournalRetry{
			ID:    "job-0007",
			Tasks: 1,
		}},
		"journal_finish": {LSN: 5, Kind: JournalKindFinish, Finish: &JournalFinish{
			ID:     "job-0007",
			State:  StateFailed,
			Error:  "retry budget exhausted: 65 reissues exceed budget 64 (worker \"node7\" lost)",
			At:     1754560002000000000,
			Served: fv(1233.25),
		}},
	}
}

// canonicalJournalSnapshot exercises every snapshot field, including a
// terminal job (no task list, tallies only) next to a live one.
func canonicalJournalSnapshot() *JournalSnapshot {
	return &JournalSnapshot{
		LSN:            5,
		Start:          1754559000000000000,
		NextSeq:        7,
		NextWire:       120,
		Served:         map[string]float64{"free": 433.5, "gold": 1233.25},
		TasksSubmitted: 122,
		TasksDone:      119,
		Reissued:       3,
		Batches:        9,
		Done:           4,
		Failed:         1,
		Cancelled:      1,
		Jobs: []JournalJob{
			{
				ID:          "job-0006",
				Seq:         6,
				Tenant:      "free",
				Scheduler:   "MX",
				State:       StateDone,
				Total:       120,
				Completed:   120,
				Budget:      64,
				ServedWork:  0,
				Elapsed:     480.5,
				SubmittedAt: 1754559100000000000,
				StartedAt:   1754559101000000000,
				FinishedAt:  1754559900000000000,
				Workers:     []dist.JobWorkerResult{{Name: "node7", Tasks: 120, Work: 48000.75}},
			},
			{
				ID:          "job-0007",
				Seq:         7,
				Tenant:      "gold",
				Priority:    2,
				Spec:        json.RawMessage(`{"name":"PN","generations":500}`),
				Scheduler:   "PN",
				State:       StateRunning,
				Total:       2,
				Completed:   1,
				Retries:     1,
				Budget:      64,
				Charge:      453.5,
				ServedWork:  420.5,
				Elapsed:     4.806,
				SubmittedAt: 1754560000000000000,
				StartedAt:   1754560001000000000,
				Tasks:       []task.Task{{ID: 1, Size: 33}},
				Workers:     []dist.JobWorkerResult{{Name: "node7", Tasks: 1, Work: 420.5}},
			},
		},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden:\ngot  %swant %s", name, got, want)
	}
}

func TestJournalGoldenRecords(t *testing.T) {
	for name, rec := range canonicalJournalRecords() {
		t.Run(name, func(t *testing.T) {
			enc, err := encodeJournalRecord(rec)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			checkGolden(t, name, enc)

			// The committed bytes must decode and re-encode identically:
			// the golden is a real journal line, not just a rendering.
			want, err := os.ReadFile(goldenPath(name))
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			rec2, err := decodeJournalRecord(bytes.TrimSuffix(want, []byte("\n")))
			if err != nil {
				t.Fatalf("golden does not decode: %v", err)
			}
			enc2, err := encodeJournalRecord(rec2)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(enc2, want) {
				t.Errorf("decode→encode not byte-identical:\ngot  %swant %s", enc2, want)
			}
		})
	}
}

func TestJournalGoldenSnapshot(t *testing.T) {
	snap := canonicalJournalSnapshot()
	b, err := json.MarshalIndent(snap, "", "\t")
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := append(b, '\n')
	checkGolden(t, "journal_snapshot", got)

	var snap2 JournalSnapshot
	if err := json.Unmarshal(got, &snap2); err != nil {
		t.Fatalf("golden snapshot does not decode: %v", err)
	}
	b2, err := json.MarshalIndent(&snap2, "", "\t")
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(append(b2, '\n'), got) {
		t.Errorf("snapshot decode→encode not byte-identical")
	}

	// The dispatcher's own writer, which assembles the file from cached
	// pieces, renders the committed bytes too: cold, and again with the
	// terminal job's element taken from its cache.
	want, err := os.ReadFile(goldenPath("journal_snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := replayFresh(t, canonicalJournalSnapshot(), nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, pass := range []string{"cold", "cached"} {
		enc, err := d.encodeSnapshotLocked(nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", pass, err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("%s: the snapshot writer drifted from the golden:\ngot  %swant %s", pass, enc, want)
		}
		if d.jobsByID["job-0006"].enc == nil || d.jobsByID["job-0007"].enc != nil {
			t.Fatalf("%s: want the terminal job's element cached and the running job's not", pass)
		}
	}
}
