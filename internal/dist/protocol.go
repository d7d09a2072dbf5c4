package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
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
// error: the largest legitimate frame — an assign batch of a few
// thousand tasks — stays well under it, and the bound keeps a malicious
// or broken peer from ballooning server memory one line at a time.
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
	Tasks []wireTask `json:"tasks,omitempty"`

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
		// The job kinds ride the JobObserver extension; plain Observers
		// skip them (Emit* no-ops), matching how pre-1.3 peers never see
		// the kinds at all.
		observe.EmitJobQueued(o, *f.Queued)
	case kindJobStarted:
		observe.EmitJobStarted(o, *f.Started)
	case kindJobDone:
		observe.EmitJobDone(o, *f.Finished)
	}
}

// decodeWireMessage parses and validates one wire frame. Exactly one of
// msg and ev is non-nil on success: msg for the control envelope
// (hello, assign, done, watch, welcome), ev for event frames. A frame
// whose type is unknown decodes to (nil, nil, nil) so readers skip it —
// the forward-compatibility rule the protocol has always had — while
// malformed JSON, oversized frames, and structurally invalid known
// types error. It never panics, whatever the input (FuzzWireMessage).
func decodeWireMessage(line []byte) (msg *message, ev *eventFrame, err error) {
	if len(line) > maxFrame {
		return nil, nil, errFrameTooBig
	}
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, nil, fmt.Errorf("dist: malformed frame: %w", err)
	}
	switch probe.Type {
	case "":
		return nil, nil, errors.New("dist: frame without type")
	case msgEvent:
		var f eventFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, nil, fmt.Errorf("dist: malformed event frame: %w", err)
		}
		if err := f.validate(); err != nil {
			return nil, nil, err
		}
		return nil, &f, nil
	case msgHello, msgAssign, msgDone, msgWatch, msgWelcome, msgStats, msgTrace,
		msgJobSubmit, msgJobStatus, msgJobCancel, msgJobResult:
		var m message
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, nil, fmt.Errorf("dist: malformed %s frame: %w", probe.Type, err)
		}
		if err := m.validate(); err != nil {
			return nil, nil, err
		}
		return &m, nil, nil
	default:
		return nil, nil, nil // unknown type: skip, the protocol can evolve
	}
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
		for _, w := range m.Tasks {
			if w.ID < 0 || w.Size < 0 {
				return fmt.Errorf("dist: assign with invalid task {id %d, size %v}", w.ID, w.Size)
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
	case msgStats:
		// The request is a bare {"type":"stats"}; the reply carries the
		// server's version alongside the snapshot, and that version must
		// be speakable.
		if m.Proto != nil {
			return m.Proto.compatible()
		}
		if m.Stats != nil {
			return errors.New("dist: stats reply without protocol version")
		}
	case msgTrace:
		// Same request/reply shape as stats: bare request, versioned
		// reply (1.2).
		if m.Proto != nil {
			return m.Proto.compatible()
		}
		if m.Traces != nil {
			return errors.New("dist: trace reply without protocol version")
		}
	case msgJobSubmit:
		// Reply: versioned, carrying the accepted job or an error.
		// Request: must carry the submission, whose tasks follow the
		// assign rules.
		if m.Proto != nil {
			return m.Proto.compatible()
		}
		if m.Jobs != nil || m.Error != "" {
			return errors.New("dist: job_submit reply without protocol version")
		}
		if m.Job == nil {
			return errors.New("dist: job_submit without job payload")
		}
		for _, w := range m.Job.Tasks {
			if w.ID < 0 || w.Size < 0 {
				return fmt.Errorf("dist: job_submit with invalid task {id %d, size %v}", w.ID, w.Size)
			}
		}
	case msgJobStatus:
		// Request: a job id, or empty for the whole queue. Reply:
		// versioned.
		if m.Proto != nil {
			return m.Proto.compatible()
		}
		if m.Jobs != nil || m.Error != "" {
			return errors.New("dist: job_status reply without protocol version")
		}
	case msgJobCancel, msgJobResult:
		// Request: must name a job. Reply: versioned.
		if m.Proto != nil {
			return m.Proto.compatible()
		}
		if m.Jobs != nil || m.Result != nil || m.Error != "" {
			return fmt.Errorf("dist: %s reply without protocol version", m.Type)
		}
		if m.JobID == "" {
			return fmt.Errorf("dist: %s without job_id", m.Type)
		}
	}
	return nil
}

// readFrame reads one newline-terminated frame from br, enforcing
// maxFrame. The trailing newline is stripped. It is the single framing
// point for every untrusted read path (server-side connections, the
// watch client).
func readFrame(br *bufio.Reader) ([]byte, error) {
	var frame []byte
	for {
		chunk, err := br.ReadSlice('\n')
		frame = append(frame, chunk...)
		// maxFrame bounds the payload; +1 admits the newline, so the
		// limit here matches decodeWireMessage's exactly.
		if len(frame) > maxFrame+1 {
			return nil, errFrameTooBig
		}
		switch err {
		case nil:
			return frame[:len(frame)-1], nil
		case bufio.ErrBufferFull:
			continue // long line: keep accumulating up to maxFrame
		default:
			if len(frame) > 0 && err == io.EOF {
				return nil, io.ErrUnexpectedEOF // mid-frame hangup
			}
			return nil, err
		}
	}
}

// wireTask is the on-the-wire form of a task. Arrival is deliberately
// absent: in the live system a task "arrives" when the server submits
// it, and the worker has no use for the timestamp.
type wireTask struct {
	ID   int32   `json:"id"`
	Size float64 `json:"size"` // MFLOPs
}

func toWire(ts []task.Task) []wireTask {
	out := make([]wireTask, len(ts))
	for i, t := range ts {
		out[i] = wireTask{ID: int32(t.ID), Size: float64(t.Size)}
	}
	return out
}

func fromWire(ws []wireTask) []task.Task {
	out := make([]task.Task, len(ws))
	for i, w := range ws {
		out[i] = task.Task{ID: task.ID(w.ID), Size: units.MFlops(w.Size)}
	}
	return out
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
