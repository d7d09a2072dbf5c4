package dist

import (
	"bytes"
	"encoding/json"
	"testing"

	"pnsched/internal/observe"
)

// FuzzWireMessage fuzzes the JSON-lines wire decoder with arbitrary
// frames. The invariants, whatever the input:
//
//   - decodeWireMessage never panics (malformed hello, truncated JSON,
//     unknown event kinds, deeply broken frames — all must surface as
//     a clean error or a skip, never a crash of the server or a watch
//     client);
//   - oversized frames always error;
//   - anything it accepts as an event frame survives an
//     encode→decode→deliver round trip (the frame really is
//     well-formed, not merely non-crashing).
//
// The seed corpus under testdata/fuzz/FuzzWireMessage pins one
// exemplar per message type plus the interesting malformed shapes.
func FuzzWireMessage(f *testing.F) {
	seeds := []string{
		`{"type":"hello","name":"host-123","rate":314.2}`,
		`{"type":"assign","tasks":[{"id":7,"size":420.5},{"id":12,"size":33}]}`,
		`{"type":"done","task":7,"elapsed":1.338,"real":0.0013}`,
		`{"type":"watch","proto":{"major":1,"minor":0}}`,
		`{"type":"welcome","proto":{"major":1,"minor":0}}`,
		`{"type":"event","v":{"major":1,"minor":0},"seq":1,"kind":"batch_decided","batch":{"invocation":1,"scheduler":"PN","tasks":200,"procs":50,"cost":0.1,"at":2.5}}`,
		`{"type":"event","v":{"major":1,"minor":0},"seq":2,"kind":"dispatch","dispatch":{"proc":3,"task":0,"at":2.5}}`,
		`{"type":"event","v":{"major":1,"minor":1},"seq":6,"kind":"worker_joined","joined":{"name":"node7","rate":87.5,"workers":3,"at":21.5}}`,
		`{"type":"event","v":{"major":1,"minor":1},"seq":7,"kind":"worker_left","left":{"name":"node7","reissued":5,"workers":2,"at":44.25}}`,
		`{"type":"event","v":{"major":1,"minor":1},"seq":8,"kind":"worker_joined"}`,
		`{"type":"event","v":{"major":1,"minor":2},"seq":9,"kind":"evolve_done","evolve":{"generations":312,"evaluations":6240,"genes":48000,"rebalance_evals":40,"budget":1.5,"spent":1.4375,"best_makespan":96.875,"reason":"budget"}}`,
		`{"type":"event","v":{"major":1,"minor":2},"seq":10,"kind":"evolve_done"}`,
		`{"type":"stats"}`,
		`{"type":"trace"}`,
		`{"type":"trace","proto":{"major":1,"minor":2},"traces":[{"invocation":3,"scheduler":"PN","tasks":200,"procs":50,"cost":0.125,"at":17.5,"wall":0.0625,"generations":312,"evaluations":6240,"genes":48000,"budget":1.5,"spent":1.4375,"best_makespan":96.875,"reason":"budget","curve":[{"generation":0,"makespan":140.5},{"generation":288,"makespan":96.875}]}]}`,
		`{"type":"trace","traces":[{"invocation":1}]}`,
		`{"type":"stats","proto":{"major":1,"minor":1},"stats":{"uptime":12.5,"submitted":10,"completed":4,"reissued":0,"pending":5,"running":1,"batches":2,"workers":[{"name":"w","rate":50,"running":1,"completed":4}],"latency":{"samples":4,"p50":0.1,"p90":0.2,"p99":0.3}}}`,
		`{"type":"stats","stats":{"uptime":1}}`,
		`{"type":"job_submit","job":{"tenant":"gold","priority":2,"spec":{"name":"PN","generations":500},"retry_budget":8,"tasks":[{"id":0,"size":420.5},{"id":1,"size":33}]}}`,
		`{"type":"job_submit","proto":{"major":1,"minor":3},"jobs":[{"id":"job-0007","tenant":"gold","state":"queued","scheduler":"PN","tasks":200,"completed":0,"retry_budget":64,"position":3,"submitted_at":52.5}]}`,
		`{"type":"job_submit"}`,
		`{"type":"job_submit","job":{"tasks":[{"id":1,"size":5},{"id":1,"size":5}]}}`,
		`{"type":"job_status","job_id":"job-0007"}`,
		`{"type":"job_status"}`,
		`{"type":"job_status","proto":{"major":1,"minor":3},"error":"dist: unknown job \"job-9999\""}`,
		`{"type":"job_cancel","job_id":"job-0007"}`,
		`{"type":"job_cancel"}`,
		`{"type":"job_result","job_id":"job-0006"}`,
		`{"type":"job_result","proto":{"major":1,"minor":3},"result":{"id":"job-0006","tenant":"free","state":"done","tasks":120,"completed":120,"elapsed":480.5,"duration":9.25,"workers":[{"name":"w","tasks":120,"work":48000.75}]}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":13,"kind":"job_queued","queued":{"id":"job-0007","tenant":"gold","priority":2,"tasks":200,"queued":3,"at":52.5}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":14,"kind":"job_started","started":{"id":"job-0007","tenant":"gold","workers":3,"waited":4.25,"at":56.75}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":15,"kind":"job_done","finished":{"id":"job-0007","tenant":"gold","state":"done","completed":200,"retries":5,"duration":30.5,"at":87.25}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":16,"kind":"job_done"}`,
		`{"type":"event","v":{"major":1,"minor":9},"seq":3,"kind":"from_the_future"}`,
		`{"type":"event","v":{"major":2,"minor":0},"seq":4,"kind":"dispatch"}`,
		`{"type":"event","v":{"major":1,"minor":0},"seq":5,"kind":"nonsense"}`,
		`{"type":"hello","rate":-3}`,
		`{"type":"mystery","x":1}`,
		`{"type":""}`,
		`{`,
		`null`,
		`[]`,
		`"hello"`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Add(bytes.Repeat([]byte("A"), maxFrame+1))

	f.Fuzz(func(t *testing.T, line []byte) {
		m, ev, err := decodeWireMessage(line)
		if err != nil {
			if m != nil || ev != nil {
				t.Fatalf("error %v alongside a decoded frame (%v, %v)", err, m, ev)
			}
			return
		}
		if m != nil && ev != nil {
			t.Fatal("decoded as both a control message and an event frame")
		}
		if len(line) > maxFrame {
			t.Fatalf("oversized frame of %d bytes accepted", len(line))
		}
		if ev != nil {
			// Accepted events must be deliverable and re-encodable.
			ev.deliver(observe.Funcs{})
			enc, err := json.Marshal(ev)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			m2, ev2, err := decodeWireMessage(enc)
			if err != nil || m2 != nil || ev2 == nil {
				t.Fatalf("re-encoded frame no longer decodes: (%v, %v, %v)\n%s", m2, ev2, err, enc)
			}
		}
	})
}
