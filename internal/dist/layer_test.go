package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"pnsched/internal/observe"
	"pnsched/internal/rng"
	"pnsched/internal/sched"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// Layer benchmarks of the wire codec, the event fan-out and the pool
// core, each named after the bench/ probe it mirrors where one exists
// (dist.decode_ns_per_frame and dist.encode_ns_per_frame time the same
// frames end to end, dist.publish_ns_per_event_sub1/sub8 the same
// fan-out).

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

// BenchmarkEncodeJobSubmit64 encodes the 64-task job_submit request of
// BenchmarkDecodeJobSubmit64, as a client sends each job.
func BenchmarkEncodeJobSubmit64(b *testing.B) {
	benchEncode(b, func(w *frameWriter) error {
		return w.message(&message{Type: msgJobSubmit, Job: &layerSubmission})
	})
}

// layerSubmission is the 64-task job of the job_submit rows.
var layerSubmission = JobSubmission{
	Tenant: "t1", Spec: json.RawMessage(`{"name":"MM"}`), Tasks: layerTasks(64),
}

// benchEncode writes one frame with write b.N times through a
// frameWriter onto io.Discard, flushing after each frame as a writer
// with an empty queue does.
func benchEncode(b *testing.B, write func(w *frameWriter) error) {
	bw := bufio.NewWriter(io.Discard)
	w := &frameWriter{bw: bw, enc: json.NewEncoder(bw)}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := write(w); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkDecodeDone decodes one done report, as the pool reads each
// finished task.
func BenchmarkDecodeDone(b *testing.B) {
	benchDecode(b, []byte(`{"type":"done","task":5,"elapsed":10.5,"real":0.0105}`))
}

// BenchmarkEncodeDone encodes one done report, as a worker sends each
// finished task.
func BenchmarkEncodeDone(b *testing.B) {
	m := &message{Type: msgDone, Task: 5, Elapsed: 10.5, Real: 0.0105}
	benchEncode(b, func(w *frameWriter) error { return w.message(m) })
}

// BenchmarkDecodeDispatchEvent decodes one dispatch event, as a watch
// client reads each task sent.
func BenchmarkDecodeDispatchEvent(b *testing.B) {
	benchDecode(b, []byte(`{"type":"event","v":{"major":1,"minor":3},"seq":41,"kind":"dispatch","dispatch":{"proc":3,"task":41,"at":12.5}}`))
}

// BenchmarkEncodeDispatchEvent encodes one dispatch event, as the
// broadcaster writes each task sent to each subscriber.
func BenchmarkEncodeDispatchEvent(b *testing.B) {
	f := &eventFrame{Type: msgEvent, V: wireVersion{Major: 1, Minor: 3}, Seq: 41, Kind: kindDispatch,
		Dispatch: &observe.Dispatch{Proc: 3, Task: 41, At: 12.5}}
	benchEncode(b, func(w *frameWriter) error { return w.event(f) })
}

// layerJobDone is the job_done event frame of the job-event rows.
const layerJobDone = `{"type":"event","v":{"major":1,"minor":3},"seq":15,"kind":"job_done","finished":{"id":"job-0007","tenant":"t2","state":"done","completed":64,"duration":0.8732719523641254,"at":87.25194758327102}}`

// BenchmarkDecodeJobDoneEvent decodes one job_done event, as a watch
// client reads each finished job.
func BenchmarkDecodeJobDoneEvent(b *testing.B) {
	benchDecode(b, []byte(layerJobDone))
}

// BenchmarkEncodeJobDoneEvent encodes the job_done event of
// BenchmarkDecodeJobDoneEvent, as the broadcaster writes each finished
// job to each subscriber.
func BenchmarkEncodeJobDoneEvent(b *testing.B) {
	_, f, err := decodeWireMessage([]byte(layerJobDone))
	if err != nil {
		b.Fatal(err)
	}
	benchEncode(b, func(w *frameWriter) error { return w.event(f) })
}

// BenchmarkPublishSub1 and BenchmarkPublishSub8 publish dispatch events
// to 1 and 8 watch subscribers, each served by ServeWatch over an
// in-memory pipe and drained by its client.
func BenchmarkPublishSub1(b *testing.B) { benchPublish(b, 1) }

func BenchmarkPublishSub8(b *testing.B) { benchPublish(b, 8) }

func benchPublish(b *testing.B, subs int) {
	bc := NewBroadcaster(0, -1)
	drained := make(chan struct{}, subs)
	for range subs {
		server, client := net.Pipe()
		go ServeWatch(server, bufio.NewReader(server), bc, nil)
		br := bufio.NewReader(client)
		if _, err := readFrame(br); err != nil { // the welcome
			b.Fatal(err)
		}
		go func() {
			io.Copy(io.Discard, br)
			client.Close()
			drained <- struct{}{}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		bc.OnDispatch(observe.Dispatch{Proc: i % 4, Task: task.ID(i), At: units.Seconds(i)})
	}
	b.StopTimer()
	bc.Close()
	for range subs {
		<-drained
	}
}

// BenchmarkCoreTakeCommit200x8 is one batch through the core: the take
// of 200 queued tasks and the commit of a decision spreading them
// round-robin over 8 workers, then the release that empties the workers
// for the next batch.
func BenchmarkCoreTakeCommit200x8(b *testing.B) {
	r := newCoreRig(b, DefaultBacklog)
	for j := range 8 {
		r.join(fmt.Sprintf("w%d", j), 100)
	}
	ts := layerTasks(200)
	asg := sched.NewAssignment(8)
	for i, t := range ts {
		asg[i%8] = append(asg[i%8], t)
	}
	var frames [][]task.Task
	var events []observe.Dispatch
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.q.PushAll(ts)
		_, snap := r.c.takeLocked(nil, r.q, batchOf(len(ts)), r.at(0))
		frames, events = r.c.commitLocked(nil, snap.workers, asg, r.at(0), frames[:0], events[:0])
		r.c.ReleaseLocked(nil)
	}
}

// BenchmarkCoreDone is one done report through the core, per task. The
// tasks reported are sent to one worker 1024 at a time, untimed.
func BenchmarkCoreDone(b *testing.B) {
	r := newCoreRig(b, DefaultBacklog)
	w := r.join("w", 100)
	ts := layerTasks(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		k := i % len(ts)
		if k == 0 {
			b.StopTimer()
			r.o.done = r.o.done[:0]
			r.send(nil, r.at(0), 0, ts...)
			b.StartTimer()
		}
		r.c.doneLocked(w, int32(k), 1, 0, r.at(time.Second))
	}
}
