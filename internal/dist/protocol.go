package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"syscall"

	"pnsched/internal/observe"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// Message types of the JSON-lines wire protocol (see the package
// documentation for the full grammar).
const (
	msgHello   = "hello"   // worker → server: registration
	msgAssign  = "assign"  // server → worker: batch of tasks to queue
	msgDone    = "done"    // worker → server: one task completed
	msgWatch   = "watch"   // watch client → server: event subscription
	msgWelcome = "welcome" // server → watch client: subscription accepted
	msgEvent   = "event"   // server → watch client: one observer event
	msgStats   = "stats"   // stats client ↔ server: snapshot request/reply (1.1)
	msgTrace   = "trace"   // trace client ↔ server: decision-trace request/reply (1.2)

	// Job dispatcher request/reply messages (protocol 1.3). Like stats
	// and trace, each is a one-shot exchange: the client sends a request
	// (no Proto), the dispatcher answers with a versioned reply carrying
	// either the result fields or an error string, then closes.
	msgJobSubmit = "job_submit" // client ↔ dispatcher: submit a job (1.3)
	msgJobStatus = "job_status" // client ↔ dispatcher: one job's (or the whole queue's) status (1.3)
	msgJobCancel = "job_cancel" // client ↔ dispatcher: cancel a job (1.3)
	msgJobResult = "job_result" // client ↔ dispatcher: fetch a finished job's result (1.3)
)

// Event-stream protocol version, carried on the watch handshake and on
// every event frame. A peer speaking a different major version is
// incompatible and rejected; a peer with a newer minor version may send
// event kinds and fields this side does not know, which are skipped
// (fields by encoding/json's default behaviour, kinds by deliver).
//
// Version history (docs/wire-protocol.md is the authoritative spec):
//
//	1.0 — initial event stream: watch/welcome handshake, the five
//	      scheduling event kinds, drop-and-count delivery.
//	1.1 — worker lifecycle kinds worker_joined / worker_left, the
//	      stats request/reply message, and catch-up replay of recent
//	      frames to late subscribers. 1.0 clients skip the new kinds
//	      and cannot request stats; nothing they understood changed.
//	1.2 — the evolve_done event kind (per-run GA evaluation ledger),
//	      the wall field on batch_decided, and the trace request/reply
//	      message returning the server's ring of per-batch decision
//	      traces. 1.0/1.1 clients skip the new kind and field and
//	      cannot request traces; nothing they understood changed.
//	1.3 — the job dispatcher: job_submit / job_status / job_cancel /
//	      job_result request/reply messages, the job lifecycle event
//	      kinds job_queued / job_started / job_done, and the jobs
//	      block on the stats snapshot. Older clients skip the new
//	      kinds and fields and cannot speak the job messages; nothing
//	      they understood changed.
const (
	ProtoMajor = 1
	ProtoMinor = 3
)

// maxFrame bounds one JSON-lines frame. Frames beyond it are a protocol
// error: an assign batch of a few thousand tasks stays well under it,
// a larger one is split into consecutive frames by the writer
// (frameWriter.message), and the bound keeps a malicious or broken peer
// from ballooning server memory one line at a time.
const maxFrame = 1 << 20

// errFrameTooBig is returned for frames exceeding maxFrame.
var errFrameTooBig = fmt.Errorf("dist: frame exceeds %d bytes", maxFrame)

// message is the single envelope for every client↔server control
// message; Type selects which of the remaining fields are meaningful.
// Using one envelope keeps decoding trivial (no two-pass tag dispatch)
// at the cost of a few always-empty fields per line. Event frames are
// the exception: they have their own versioned struct (eventFrame).
type message struct {
	Type string `json:"type"`

	// hello
	Name string  `json:"name,omitempty"`
	Rate float64 `json:"rate,omitempty"` // claimed Mflop/s

	// assign
	Tasks []task.Task `json:"tasks,omitempty"`

	// done
	Task    int32   `json:"task"`    // task ID (0 is a valid ID — no omitempty)
	Elapsed float64 `json:"elapsed"` // simulated processing seconds
	// Real is the wall-clock processing time in seconds. The server
	// uses the Real:Elapsed ratio to convert its (real) round-trip
	// slack measurements into the simulated clock for the Γc link
	// estimate, which keeps the estimate meaningful under compressed
	// TimeScale. Zero (absent) skips the observation.
	Real float64 `json:"real,omitempty"`

	// watch / welcome / stats reply / trace reply
	Proto *wireVersion `json:"proto,omitempty"`

	// stats reply (absent on the request)
	Stats *Snapshot `json:"stats,omitempty"`

	// trace reply (absent on the request); oldest decision first
	Traces []Trace `json:"traces,omitempty"`

	// job_submit request (1.3)
	Job *JobSubmission `json:"job,omitempty"`

	// job_status / job_cancel / job_result requests (1.3): the target
	// job. A job_status request with an empty JobID asks for the whole
	// queue.
	JobID string `json:"job_id,omitempty"`

	// job_submit / job_status / job_cancel replies (1.3): the affected
	// job(s), newest submission last.
	Jobs []JobInfo `json:"jobs,omitempty"`

	// job_result reply (1.3)
	Result *JobResult `json:"result,omitempty"`

	// job_* replies (1.3): a request the dispatcher understood but
	// could not satisfy (unknown job, invalid submission, …). Mutually
	// exclusive with Jobs/Result.
	Error string `json:"error,omitempty"`
}

// wireVersion is the event-stream protocol version of a peer.
type wireVersion struct {
	Major int `json:"major"`
	Minor int `json:"minor"`
}

// compatible reports whether a peer's version can be spoken to: equal
// major, any minor (newer minors only add frames and fields, which the
// decoder skips).
func (v wireVersion) compatible() error {
	if v.Major != ProtoMajor {
		return fmt.Errorf("dist: protocol version %d.%d incompatible with %d.%d",
			v.Major, v.Minor, ProtoMajor, ProtoMinor)
	}
	return nil
}

// Event kinds carried by eventFrame, one per observe.Observer method.
// The worker lifecycle kinds were added in protocol 1.1; 1.0 clients
// skip them (the forward-compatibility rule validate/deliver encode).
const (
	kindBatchDecided   = "batch_decided"
	kindGenerationBest = "generation_best"
	kindMigration      = "migration"
	kindDispatch       = "dispatch"
	kindBudgetStop     = "budget_stop"
	kindWorkerJoined   = "worker_joined" // 1.1
	kindWorkerLeft     = "worker_left"   // 1.1
	kindEvolveDone     = "evolve_done"   // 1.2
	kindJobQueued      = "job_queued"    // 1.3
	kindJobStarted     = "job_started"   // 1.3
	kindJobDone        = "job_done"      // 1.3
)

// eventFrame is the versioned server→client wire form of one Observer
// event. Exactly one payload pointer is set, selected by Kind; new
// kinds or payload fields may only be added under a new minor version,
// so old clients can skip what they do not understand while anything
// they do decode means what it always meant.
type eventFrame struct {
	Type string      `json:"type"` // always "event"
	V    wireVersion `json:"v"`
	// Seq numbers frames in publication order, identically for every
	// subscriber of one server. Gaps at a given client correspond to
	// frames dropped for that client (see Dropped).
	Seq uint64 `json:"seq"`
	// Dropped is the cumulative number of frames the server has
	// discarded for THIS subscriber because its send queue was full —
	// the drop-and-count policy that keeps a slow watcher from ever
	// stalling scheduling.
	Dropped uint64 `json:"dropped,omitempty"`
	Kind    string `json:"kind"`

	Batch      *observe.BatchDecision  `json:"batch,omitempty"`
	Generation *observe.GenerationBest `json:"generation,omitempty"`
	Migration  *observe.Migration      `json:"migration,omitempty"`
	Dispatch   *observe.Dispatch       `json:"dispatch,omitempty"`
	Budget     *observe.BudgetStop     `json:"budget,omitempty"`
	Joined     *observe.WorkerJoined   `json:"joined,omitempty"`
	Left       *observe.WorkerLeft     `json:"left,omitempty"`
	Evolve     *observe.EvolveDone     `json:"evolve,omitempty"`
	Queued     *observe.JobQueued      `json:"queued,omitempty"`
	Started    *observe.JobStarted     `json:"started,omitempty"`
	Finished   *observe.JobDone        `json:"finished,omitempty"`
}

// validate checks an event frame's internal consistency: version
// compatibility and that the payload matching Kind is present. An
// unknown kind is an error at this side's minor version — the peer is
// not newer, so the kind cannot be legitimate — but is silently
// skippable when the frame declares a newer minor (deliver handles
// that case; validate only rejects what can never be understood).
func (f *eventFrame) validate() error {
	if err := f.V.compatible(); err != nil {
		return err
	}
	var missing bool
	switch f.Kind {
	case kindBatchDecided:
		missing = f.Batch == nil
	case kindGenerationBest:
		missing = f.Generation == nil
	case kindMigration:
		missing = f.Migration == nil
	case kindDispatch:
		missing = f.Dispatch == nil
	case kindBudgetStop:
		missing = f.Budget == nil
	case kindWorkerJoined:
		missing = f.Joined == nil
	case kindWorkerLeft:
		missing = f.Left == nil
	case kindEvolveDone:
		missing = f.Evolve == nil
	case kindJobQueued:
		missing = f.Queued == nil
	case kindJobStarted:
		missing = f.Started == nil
	case kindJobDone:
		missing = f.Finished == nil
	case "":
		return errors.New("dist: event frame without kind")
	default:
		if f.V.Minor > ProtoMinor {
			return nil // a newer peer's kind: skippable, not invalid
		}
		return fmt.Errorf("dist: unknown event kind %q at protocol %d.%d",
			f.Kind, f.V.Major, f.V.Minor)
	}
	if missing {
		return fmt.Errorf("dist: event frame kind %q missing its payload", f.Kind)
	}
	return nil
}

// deliver dispatches a validated frame to an observer. Kinds from a
// newer minor version are skipped silently — the forward-compatibility
// contract of the event stream.
func (f *eventFrame) deliver(o observe.Observer) {
	if o == nil {
		return
	}
	switch f.Kind {
	case kindBatchDecided:
		o.OnBatchDecided(*f.Batch)
	case kindGenerationBest:
		o.OnGenerationBest(*f.Generation)
	case kindMigration:
		o.OnMigration(*f.Migration)
	case kindDispatch:
		o.OnDispatch(*f.Dispatch)
	case kindBudgetStop:
		o.OnBudgetStop(*f.Budget)
	case kindWorkerJoined:
		o.OnWorkerJoined(*f.Joined)
	case kindWorkerLeft:
		o.OnWorkerLeft(*f.Left)
	case kindEvolveDone:
		o.OnEvolveDone(*f.Evolve)
	case kindJobQueued:
		o.OnJobQueued(*f.Queued)
	case kindJobStarted:
		o.OnJobStarted(*f.Started)
	case kindJobDone:
		o.OnJobDone(*f.Finished)
	}
}

// decodeWireMessage parses and validates one wire frame. Exactly one of
// msg and ev is non-nil on success: msg for the control envelope
// (hello, assign, done, watch, welcome), ev for event frames. A frame
// whose type is unknown decodes to (nil, nil, nil) so readers skip it —
// the forward-compatibility rule the protocol has always had — while
// malformed JSON, oversized frames, and structurally invalid known
// types error. It never panics, whatever the input (FuzzWireMessage).
//
// Each frame is parsed once: the hot frames by hand (decodeHot), any
// other frame opening with its type by one json.Unmarshal into the
// struct that type names. Whatever neither takes — a frame that does not
// open with its type, an unknown type, a malformed frame — goes to
// decodeProbe, the reference decoder, which also words every error.
// The result is decodeProbe's in every case (FuzzWireCodec).
func decodeWireMessage(line []byte) (msg *message, ev *eventFrame, err error) {
	if len(line) > maxFrame {
		return nil, nil, errFrameTooBig
	}
	m, ev, ok := decodeHot(line)
	if !ok {
		m, ev, ok = decodeTyped(line)
	}
	if !ok {
		return decodeProbe(line)
	}
	return checked(m, ev)
}

// decodeTyped unmarshals a frame that opens with {"type":"…" once, into
// the struct its type names. ok is false — decline — for any other
// opening, an unknown type, a failed unmarshal, or a decoded Type that is
// not the one the frame opened with (a repeated or differently-cased
// "type" key decides on its last occurrence).
func decodeTyped(line []byte) (*message, *eventFrame, bool) {
	rest, found := bytes.CutPrefix(line, []byte(`{"type":"`))
	end := bytes.IndexByte(rest, '"')
	if !found || end < 0 {
		return nil, nil, false
	}
	typ := rest[:end]
	if string(typ) == msgEvent {
		var f eventFrame
		if json.Unmarshal(line, &f) != nil || f.Type != msgEvent {
			return nil, nil, false
		}
		return nil, &f, true
	}
	var m message
	if !isControl(string(typ)) || json.Unmarshal(line, &m) != nil || m.Type != string(typ) {
		return nil, nil, false
	}
	return &m, nil, true
}

// decodeProbe is the reference decoder: it probes the type with one
// unmarshal, then decodes the frame with a second. decodeWireMessage
// falls back to it for every frame its single-parse paths decline.
func decodeProbe(line []byte) (*message, *eventFrame, error) {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, nil, fmt.Errorf("dist: malformed frame: %w", err)
	}
	switch {
	case probe.Type == "":
		return nil, nil, errors.New("dist: frame without type")
	case probe.Type == msgEvent:
		var f eventFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, nil, fmt.Errorf("dist: malformed event frame: %w", err)
		}
		return checked(nil, &f)
	case isControl(probe.Type):
		var m message
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, nil, fmt.Errorf("dist: malformed %s frame: %w", probe.Type, err)
		}
		return checked(&m, nil)
	default:
		return nil, nil, nil // unknown type: skip, the protocol can evolve
	}
}

// isControl reports whether typ is a message type of the control
// envelope.
func isControl(typ string) bool {
	switch typ {
	case msgHello, msgAssign, msgDone, msgWatch, msgWelcome, msgStats, msgTrace,
		msgJobSubmit, msgJobStatus, msgJobCancel, msgJobResult:
		return true
	}
	return false
}

// checked validates a decoded frame: exactly one of m and ev is non-nil.
func checked(m *message, ev *eventFrame) (*message, *eventFrame, error) {
	var err error
	if m != nil {
		err = m.validate()
	} else {
		err = ev.validate()
	}
	if err != nil {
		return nil, nil, err
	}
	return m, ev, nil
}

// validate applies the per-type structural rules of the control
// envelope.
func (m *message) validate() error {
	switch m.Type {
	case msgHello:
		if m.Name == "" {
			return errors.New("dist: hello with empty worker name")
		}
		if m.Rate <= 0 {
			return fmt.Errorf("dist: worker %s claimed non-positive rate %v", m.Name, m.Rate)
		}
	case msgAssign:
		for _, t := range m.Tasks {
			if err := CheckTask(t); err != nil {
				return fmt.Errorf("dist: assign with %w", err)
			}
		}
	case msgDone:
		if m.Task < 0 {
			return fmt.Errorf("dist: done with negative task id %d", m.Task)
		}
		if m.Elapsed < 0 || m.Real < 0 {
			return fmt.Errorf("dist: done for task %d with negative times (elapsed %v, real %v)",
				m.Task, m.Elapsed, m.Real)
		}
	case msgWatch, msgWelcome:
		if m.Proto == nil {
			return fmt.Errorf("dist: %s without protocol version", m.Type)
		}
		return m.Proto.compatible()
	case msgStats, msgTrace, msgJobSubmit, msgJobStatus, msgJobCancel, msgJobResult:
		// One-shot exchanges: a request carries no reply field, and a
		// reply carries the version of the side that wrote it, which
		// this side must speak. What a request asks for is the
		// answering side's to refuse, in-band.
		if m.Proto != nil {
			return m.Proto.compatible()
		}
		if m.Stats != nil || m.Traces != nil || m.Jobs != nil || m.Result != nil || m.Error != "" {
			return fmt.Errorf("dist: %s reply without protocol version", m.Type)
		}
	}
	return nil
}

// readFrame reads one newline-terminated frame from br, enforcing
// maxFrame. The trailing newline is stripped. It is the single framing
// point for every untrusted read path (server-side connections, workers,
// the watch client).
//
// A frame that fits br's buffer is returned in place, without a copy, so
// it is valid only until the next read from br; only longer frames are
// copied out. Nothing decoded from a frame shares its bytes — encoding/json
// copies strings and json.RawMessage, and the hand decoder yields numbers.
func readFrame(br *bufio.Reader) ([]byte, error) {
	var frame []byte
	for {
		chunk, err := br.ReadSlice('\n')
		// maxFrame bounds the payload; +1 admits the newline, so the
		// limit here matches decodeWireMessage's exactly.
		if len(frame)+len(chunk) > maxFrame+1 {
			return nil, errFrameTooBig
		}
		switch {
		case err == nil && frame == nil:
			return chunk[:len(chunk)-1], nil
		case err == nil:
			frame = append(frame, chunk...)
			return frame[:len(frame)-1], nil
		case err == bufio.ErrBufferFull:
			// Long line: copy out before the next read reuses the buffer,
			// and keep accumulating up to maxFrame.
			frame = append(frame, chunk...)
		case len(frame)+len(chunk) > 0 && err == io.EOF:
			return nil, io.ErrUnexpectedEOF // mid-frame hangup
		default:
			return nil, err
		}
	}
}

// frameWriter batches frames onto one connection. Each frame is encoded
// into a buffer — a hot frame by hand, any other by encoding/json — and
// reaches the socket when the buffer fills or is flushed, which drain
// does whenever its queue is empty. So one write may carry many frames,
// and a frame waits only behind frames already queued.
type frameWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder // writes into bw
}

func newFrameWriter(conn net.Conn) *frameWriter {
	bw := bufio.NewWriter(conn)
	return &frameWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// message writes m. A hot frame longer than maxFrame — only an assign of
// tens of thousands of tasks gets there — goes out instead as
// consecutive frames over the halves of its task list, so no peer is
// ever sent a frame it must refuse.
func (w *frameWriter) message(m *message) error {
	b, ok := appendMessage(w.bw.AvailableBuffer(), m)
	switch {
	case !ok:
		return w.enc.Encode(m)
	case len(b) > maxFrame+1 && len(m.Tasks) > 1:
		first, rest := *m, *m
		h := len(m.Tasks) / 2
		first.Tasks, rest.Tasks = m.Tasks[:h], m.Tasks[h:]
		if err := w.message(&first); err != nil {
			return err
		}
		return w.message(&rest)
	}
	_, err := w.bw.Write(b)
	return err
}

// event writes f.
func (w *frameWriter) event(f *eventFrame) error {
	if b, ok := appendEvent(w.bw.AvailableBuffer(), f); ok {
		_, err := w.bw.Write(b)
		return err
	}
	return w.enc.Encode(f)
}

// drain writes each value received from queue with write, flushing w
// whenever queue is empty — before the first receive too, so frames
// written ahead of the loop go out — until queue is closed (and all it
// held written) or a write fails.
func drain[T any](w *frameWriter, queue <-chan T, write func(T) error) error {
	for {
		if len(queue) == 0 {
			if err := w.bw.Flush(); err != nil {
				return err
			}
		}
		v, ok := <-queue
		if !ok {
			return nil
		}
		if err := write(v); err != nil {
			return err
		}
	}
}

// CheckTask is the one rule every task is held to: a non-negative id
// and a finite, non-negative size. It runs once at each way in — a
// worker's assign frames (it hangs up on a breach), the job
// dispatcher's Append, and the one place the dispatcher installs a
// job, which Submit and journal replay both reach — so a task that
// breaks it is refused where it enters, and JSON never has to carry a
// NaN or infinite size into the journal.
func CheckTask(t task.Task) error {
	if t.ID < 0 || !(t.Size >= 0 && t.Size <= math.MaxFloat64) {
		return fmt.Errorf("invalid task {id %d, size %v}", t.ID, float64(t.Size))
	}
	return nil
}

// The hot frames — the dispatch event, done and assign, one or more of
// each per task — have a hand codec; every other frame goes through
// encoding/json. The hand encoder writes exactly the bytes json.Encoder
// writes for the same value (FuzzWireCodec and the goldens hold it
// there), and the hand decoder accepts a frame only in exactly that
// form, so whatever it accepts the reflective decoder would decode to
// the same value. Decoders still accept any key order and spacing: a
// frame in another form simply takes the reflective path.

// hot reports whether m is a hot control frame: an assign or done with
// nothing set beyond the task list, task, elapsed and real, all of them
// finite (encoding/json refuses the others).
func (m *message) hot() bool {
	if (m.Type != msgAssign && m.Type != msgDone) || m.Name != "" || m.Rate != 0 ||
		m.Proto != nil || m.Stats != nil || len(m.Traces) != 0 || m.Job != nil ||
		m.JobID != "" || len(m.Jobs) != 0 || m.Result != nil || m.Error != "" ||
		!finite(m.Elapsed) || !finite(m.Real) {
		return false
	}
	for _, t := range m.Tasks {
		if !finite(float64(t.Size)) {
			return false
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// appendMessage appends m's frame, newline included, when m is a hot
// frame, and reports whether it did.
func appendMessage(b []byte, m *message) ([]byte, bool) {
	if !m.hot() {
		return b, false
	}
	b = append(b, `{"type":"`...)
	b = append(b, m.Type...)
	b = append(b, '"')
	if len(m.Tasks) > 0 {
		b = append(b, `,"tasks":[`...)
		for i, t := range m.Tasks {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":`...)
			b = strconv.AppendInt(b, int64(t.ID), 10)
			b = append(b, `,"size":`...)
			b = appendFloat(b, float64(t.Size))
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"task":`...)
	b = strconv.AppendInt(b, int64(m.Task), 10)
	b = append(b, `,"elapsed":`...)
	b = appendFloat(b, m.Elapsed)
	if m.Real != 0 {
		b = append(b, `,"real":`...)
		b = appendFloat(b, m.Real)
	}
	return append(b, "}\n"...), true
}

// appendEvent appends f's frame, newline included, when f is a dispatch
// event with a finite time and no other payload, and reports whether it
// did.
func appendEvent(b []byte, f *eventFrame) ([]byte, bool) {
	d := f.Dispatch
	if d == nil || !finite(float64(d.At)) || *f != (eventFrame{Type: msgEvent, V: f.V,
		Seq: f.Seq, Dropped: f.Dropped, Kind: kindDispatch, Dispatch: d}) {
		return b, false
	}
	b = append(b, `{"type":"event","v":{"major":`...)
	b = strconv.AppendInt(b, int64(f.V.Major), 10)
	b = append(b, `,"minor":`...)
	b = strconv.AppendInt(b, int64(f.V.Minor), 10)
	b = append(b, `},"seq":`...)
	b = strconv.AppendUint(b, f.Seq, 10)
	if f.Dropped != 0 {
		b = append(b, `,"dropped":`...)
		b = strconv.AppendUint(b, f.Dropped, 10)
	}
	b = append(b, `,"kind":"dispatch","dispatch":{"proc":`...)
	b = strconv.AppendInt(b, int64(d.Proc), 10)
	b = append(b, `,"task":`...)
	b = strconv.AppendInt(b, int64(d.Task), 10)
	b = append(b, `,"at":`...)
	b = appendFloat(b, float64(d.At))
	return append(b, "}}\n"...), true
}

// appendFloat appends a finite x as encoding/json writes a float64: the
// shortest digits that round-trip, in exponent form only below 1e-6 or
// from 1e21 up, with a two-digit negative exponent's leading zero
// dropped (e-07 → e-7).
func appendFloat(b []byte, x float64) []byte {
	format := byte('f')
	if a := math.Abs(x); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// decodeHot is the hand decoder of the hot frames. It declines (ok
// false) anything but a frame exactly as appendMessage or appendEvent
// would write it, newline excepted; the result is not yet validated.
func decodeHot(line []byte) (m *message, ev *eventFrame, ok bool) {
	s := scanner{b: line, ok: true}
	switch {
	case s.opt(`{"type":"event","v":{"major":`):
		var f eventFrame
		var d observe.Dispatch
		f.V.Major = int(s.parseInt(strconv.IntSize))
		s.lit(`,"minor":`)
		f.V.Minor = int(s.parseInt(strconv.IntSize))
		s.lit(`},"seq":`)
		f.Seq = s.parseUint()
		if s.opt(`,"dropped":`) {
			f.Dropped = s.parseUint()
			s.ok = s.ok && f.Dropped != 0 // the encoder omits a zero
		}
		s.lit(`,"kind":"dispatch","dispatch":{"proc":`)
		d.Proc = int(s.parseInt(strconv.IntSize))
		s.lit(`,"task":`)
		d.Task = task.ID(s.parseInt(32))
		s.lit(`,"at":`)
		d.At = units.Seconds(s.parseFloat())
		s.lit(`}}`)
		if !s.end() {
			return nil, nil, false
		}
		// One allocation holds the frame and its payload.
		x := &struct {
			f eventFrame
			d observe.Dispatch
		}{f, d}
		x.f.Type, x.f.Kind, x.f.Dispatch = msgEvent, kindDispatch, &x.d
		return nil, &x.f, true
	case s.opt(`{"type":"done"`):
		m = &message{Type: msgDone}
	case s.opt(`{"type":"assign"`):
		m = &message{Type: msgAssign}
	default:
		return nil, nil, false
	}
	if s.opt(`,"tasks":[`) {
		m.Tasks = make([]task.Task, 0, bytes.Count(line[s.i:], []byte(`{"id":`)))
		for s.ok {
			s.lit(`{"id":`)
			id := s.parseInt(32)
			s.lit(`,"size":`)
			size := s.parseFloat()
			s.lit(`}`)
			m.Tasks = append(m.Tasks, task.Task{ID: task.ID(id), Size: units.MFlops(size)})
			if !s.opt(`,`) {
				break
			}
		}
		s.lit(`]`)
	}
	s.lit(`,"task":`)
	m.Task = int32(s.parseInt(32))
	s.lit(`,"elapsed":`)
	m.Elapsed = s.parseFloat()
	if s.opt(`,"real":`) {
		m.Real = s.parseFloat()
		s.ok = s.ok && m.Real != 0 // the encoder omits a zero
	}
	s.lit(`}`)
	if !s.end() {
		return nil, nil, false
	}
	return m, nil, true
}

// scanner is decodeHot's cursor. Every step clears ok on a mismatch,
// after which the remaining steps are no-ops; a number is taken only in
// the exact form the encoder writes for the value it parses to.
type scanner struct {
	b  []byte
	i  int
	ok bool
}

// opt consumes lit if the input continues with it.
func (s *scanner) opt(lit string) bool {
	if s.ok && len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// lit consumes lit, which must come next.
func (s *scanner) lit(lit string) {
	if !s.opt(lit) {
		s.ok = false
	}
}

// end reports whether the whole input was consumed without a mismatch.
func (s *scanner) end() bool { return s.ok && s.i == len(s.b) }

// number consumes the run of number characters that comes next.
func (s *scanner) number() []byte {
	j := s.i
	for ; j < len(s.b); j++ {
		if c := s.b[j]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
	}
	tok := s.b[s.i:j]
	s.i = j
	return tok
}

// canonical keeps ok only if the number was parsed without error and
// re-encodes to exactly its token.
func (s *scanner) canonical(tok, enc []byte, err error) {
	s.ok = s.ok && err == nil && bytes.Equal(tok, enc)
}

func (s *scanner) parseInt(bits int) int64 {
	if !s.ok {
		return 0
	}
	tok := s.number()
	v, err := strconv.ParseInt(string(tok), 10, bits)
	var buf [24]byte
	s.canonical(tok, strconv.AppendInt(buf[:0], v, 10), err)
	return v
}

func (s *scanner) parseUint() uint64 {
	if !s.ok {
		return 0
	}
	tok := s.number()
	v, err := strconv.ParseUint(string(tok), 10, 64)
	var buf [24]byte
	s.canonical(tok, strconv.AppendUint(buf[:0], v, 10), err)
	return v
}

func (s *scanner) parseFloat() float64 {
	if !s.ok {
		return 0
	}
	tok := s.number()
	v, err := strconv.ParseFloat(string(tok), 64)
	var buf [32]byte
	s.canonical(tok, appendFloat(buf[:0], v), err)
	return v
}

// isClosedErr reports whether err looks like the normal teardown of an
// established connection — EOF, a read/write on a closed socket, or the
// peer's reset (what the kernel answers with when the other side closed
// while frames it had not read were still arriving) — rather than a
// protocol failure. It is not for listeners: see Pool.Serve.
func isClosedErr(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}
