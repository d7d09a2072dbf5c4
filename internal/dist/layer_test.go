package dist

import (
	"encoding/json"
	"testing"

	"pnsched/internal/rng"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// Layer benchmarks of the wire codec, each named after the bench/
// probe frame it mirrors (dist.decode_ns_per_frame and
// dist.encode_ns_per_frame time the same frames end to end).

// layerTasks returns n tasks with IDs 0..n-1 and seeded fractional
// sizes, the worst case for the float codec.
func layerTasks(n int) []task.Task {
	r := rng.New(1)
	ts := make([]task.Task, n)
	for i := range ts {
		ts[i] = task.Task{ID: task.ID(i), Size: units.MFlops(r.Float64() * 2000)}
	}
	return ts
}

// benchDecode decodes frame b.N times.
func benchDecode(b *testing.B, frame []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for range b.N {
		if _, _, err := decodeWireMessage(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeJobSubmit64 decodes a 64-task job_submit request, the
// probe's reflective frame.
func BenchmarkDecodeJobSubmit64(b *testing.B) {
	frame, err := json.Marshal(&message{Type: msgJobSubmit, Job: &JobSubmission{
		Tenant: "t1", Spec: json.RawMessage(`{"name":"MM"}`), Tasks: layerTasks(64),
	}})
	if err != nil {
		b.Fatal(err)
	}
	benchDecode(b, frame)
}

// BenchmarkDecodeAssign16 decodes a 16-task assign, as a worker reads
// each one.
func BenchmarkDecodeAssign16(b *testing.B) {
	frame, ok := appendMessage(nil, &message{Type: msgAssign, Tasks: layerTasks(16)})
	if !ok {
		b.Fatal("assign is not a hot frame")
	}
	benchDecode(b, frame[:len(frame)-1])
}

// BenchmarkEncodeAssign16 encodes a 16-task assign into a reused
// buffer, as the pool's writeLoop does.
func BenchmarkEncodeAssign16(b *testing.B) {
	m := &message{Type: msgAssign, Tasks: layerTasks(16)}
	buf, _ := appendMessage(nil, m)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for range b.N {
		buf, _ = appendMessage(buf[:0], m)
	}
}
