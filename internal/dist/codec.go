package dist

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"pnsched/internal/observe"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// The hot frames have a hand codec; every other frame goes through
// encoding/json. They are the per-task frames — the dispatch event, done
// and assign, one or more of each per task — and the per-job ones: the
// job_submit request and the batch_decided, job_queued, job_started and
// job_done events. The hand encoder writes exactly the bytes json.Encoder
// writes for the same value (FuzzWireCodec, FuzzJobCodec and the goldens
// hold it there), and the hand decoder accepts a frame only in exactly
// that form, so whatever it accepts the reflective decoder would decode
// to the same value. Decoders still accept any key order and spacing: a
// frame in another form simply takes the reflective path.
//
// A string or a job's spec is taken by hand only in the form
// encoding/json leaves as it is. A string must be plain: every byte
// printable ASCII other than '"', '\\', '<', '>' and '&', so nothing in it
// is escaped. A spec must be one compact, valid JSON value of plain
// strings, numbers, true, false, null, objects and arrays, nested at most
// maxSpecDepth deep, which json.Encoder's compaction of a RawMessage
// leaves unchanged. Any other string or spec makes the encoder decline
// and the decoder fall back, so the reflective path escapes and compacts
// it as it always has.

// maxSpecDepth bounds how deeply the arrays and objects of a spec the
// hand codec takes may nest; a deeper spec takes the reflective path.
const maxSpecDepth = 32

// plain reports whether encoding/json writes c, inside a string, as c.
func plain(c byte) bool {
	return ' ' <= c && c <= '~' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// hot reports whether m has the envelope of a hot control frame: an
// assign or done with nothing set beyond the task list, task, elapsed and
// real, or a job_submit with nothing set beyond its job. Whether the
// values in them can be written by hand is the encoder's to find.
func (m *message) hot() bool {
	if m.Name != "" || m.Rate != 0 || m.Proto != nil || m.Stats != nil || len(m.Traces) != 0 ||
		m.JobID != "" || len(m.Jobs) != 0 || m.Result != nil || m.Error != "" {
		return false
	}
	switch m.Type {
	case msgAssign, msgDone:
		return m.Job == nil
	case msgJobSubmit:
		return m.Job != nil && len(m.Tasks) == 0 && m.Task == 0 &&
			m.Elapsed == 0 && !math.Signbit(m.Elapsed) && m.Real == 0
	}
	return false
}

// finite reports whether x is neither a NaN nor an infinity, for which
// x-x is a NaN.
func finite(x float64) bool { return x-x == 0 }

// encoder is the hand encoder's buffer. A value encoding/json would
// refuse or write in another form clears ok, and the frame is declined.
type encoder struct {
	b  []byte
	ok bool
}

// frame returns the frame written onto b, or b and false if a value
// cleared ok.
func (e *encoder) frame(b []byte) ([]byte, bool) {
	if !e.ok {
		return b, false
	}
	return e.b, true
}

func (e *encoder) lit(s string)  { e.b = append(e.b, s...) }
func (e *encoder) int(x int64)   { e.b = strconv.AppendInt(e.b, x, 10) }
func (e *encoder) uint(x uint64) { e.b = strconv.AppendUint(e.b, x, 10) }

// float writes x. A NaN or an infinity, which encoding/json refuses,
// clears ok; what is written for it is never sent.
func (e *encoder) float(x float64) {
	e.ok = e.ok && finite(x)
	e.b = appendFloat(e.b, x)
}

// str writes a plain string.
func (e *encoder) str(v string) {
	for i := range len(v) {
		if !plain(v[i]) {
			e.ok = false
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, v...)
	e.b = append(e.b, '"')
}

// tasks writes a task list, nil as null: the one task-list encoder of
// the assign and job_submit frames.
func (e *encoder) tasks(ts []task.Task) {
	if ts == nil {
		e.lit(`null`)
		return
	}
	e.lit(`[`)
	for i, t := range ts {
		if i > 0 {
			e.lit(`,`)
		}
		e.lit(`{"id":`)
		e.int(int64(t.ID))
		e.lit(`,"size":`)
		e.float(float64(t.Size))
		e.lit(`}`)
	}
	e.lit(`]`)
}

// spec writes a spec that is one plain value.
func (e *encoder) spec(raw json.RawMessage) {
	s := scanner{b: raw, ok: true}
	s.value(maxSpecDepth)
	if !s.end() {
		e.ok = false
		return
	}
	e.b = append(e.b, raw...)
}

// job writes a job submission. Every field but the task list may be
// omitted, so each one present is followed by its comma.
func (e *encoder) job(j *JobSubmission) {
	e.lit(`{`)
	if j.Tenant != "" {
		e.lit(`"tenant":`)
		e.str(j.Tenant)
		e.lit(`,`)
	}
	if j.Priority != 0 {
		e.lit(`"priority":`)
		e.int(int64(j.Priority))
		e.lit(`,`)
	}
	if len(j.Spec) > 0 {
		e.lit(`"spec":`)
		e.spec(j.Spec)
		e.lit(`,`)
	}
	if j.RetryBudget != nil {
		e.lit(`"retry_budget":`)
		e.int(int64(*j.RetryBudget))
		e.lit(`,`)
	}
	e.lit(`"tasks":`)
	e.tasks(j.Tasks)
	e.lit(`}`)
}

// appendMessage appends m's frame, newline included, when m is a hot
// frame, and reports whether it did.
func appendMessage(b []byte, m *message) ([]byte, bool) {
	if !m.hot() {
		return b, false
	}
	e := encoder{b: b, ok: true}
	e.lit(`{"type":"`)
	e.lit(m.Type)
	if m.Type == msgJobSubmit {
		e.lit(`","task":0,"elapsed":0,"job":`)
		e.job(m.Job)
		e.lit("}\n")
		return e.frame(b)
	}
	e.lit(`"`)
	if len(m.Tasks) > 0 {
		e.lit(`,"tasks":`)
		e.tasks(m.Tasks)
	}
	e.lit(`,"task":`)
	e.int(int64(m.Task))
	e.lit(`,"elapsed":`)
	e.float(m.Elapsed)
	if m.Real != 0 {
		e.lit(`,"real":`)
		e.float(m.Real)
	}
	e.lit("}\n")
	return e.frame(b)
}

// appendEvent appends f's frame, newline included, when f is a hot event
// — a dispatch, batch_decided, job_queued, job_started or job_done frame
// carrying its kind's payload and no other — and reports whether it did.
// The frame written holds f's version, sequence, drop count and kind, so
// what else f could carry is a wrong Type or a second payload: both are
// ruled out before anything is written.
func appendEvent(b []byte, f *eventFrame) ([]byte, bool) {
	if f.Type != msgEvent || f.payloads() != 1 {
		return b, false
	}
	e := encoder{b: b, ok: true}
	e.lit(`{"type":"event","v":{"major":`)
	e.int(int64(f.V.Major))
	e.lit(`,"minor":`)
	e.int(int64(f.V.Minor))
	e.lit(`},"seq":`)
	e.uint(f.Seq)
	if f.Dropped != 0 {
		e.lit(`,"dropped":`)
		e.uint(f.Dropped)
	}
	switch {
	case f.Kind == kindDispatch && f.Dispatch != nil:
		d := f.Dispatch
		e.lit(`,"kind":"dispatch","dispatch":{"proc":`)
		e.int(int64(d.Proc))
		e.lit(`,"task":`)
		e.int(int64(d.Task))
		e.lit(`,"at":`)
		e.float(float64(d.At))
	case f.Kind == kindBatchDecided && f.Batch != nil:
		d := f.Batch
		e.lit(`,"kind":"batch_decided","batch":{"invocation":`)
		e.int(int64(d.Invocation))
		e.lit(`,"scheduler":`)
		e.str(d.Scheduler)
		e.lit(`,"tasks":`)
		e.int(int64(d.Tasks))
		e.lit(`,"procs":`)
		e.int(int64(d.Procs))
		e.lit(`,"cost":`)
		e.float(float64(d.Cost))
		e.lit(`,"at":`)
		e.float(float64(d.At))
		if d.Wall != 0 {
			e.lit(`,"wall":`)
			e.float(float64(d.Wall))
		}
	case f.Kind == kindJobQueued && f.Queued != nil:
		d := f.Queued
		e.lit(`,"kind":"job_queued","queued":{"id":`)
		e.str(d.ID)
		e.lit(`,"tenant":`)
		e.str(d.Tenant)
		if d.Priority != 0 {
			e.lit(`,"priority":`)
			e.int(int64(d.Priority))
		}
		e.lit(`,"tasks":`)
		e.int(int64(d.Tasks))
		e.lit(`,"queued":`)
		e.int(int64(d.Queued))
		e.lit(`,"at":`)
		e.float(float64(d.At))
	case f.Kind == kindJobStarted && f.Started != nil:
		d := f.Started
		e.lit(`,"kind":"job_started","started":{"id":`)
		e.str(d.ID)
		e.lit(`,"tenant":`)
		e.str(d.Tenant)
		e.lit(`,"workers":`)
		e.int(int64(d.Workers))
		e.lit(`,"waited":`)
		e.float(float64(d.Waited))
		e.lit(`,"at":`)
		e.float(float64(d.At))
	case f.Kind == kindJobDone && f.Finished != nil:
		d := f.Finished
		e.lit(`,"kind":"job_done","finished":{"id":`)
		e.str(d.ID)
		e.lit(`,"tenant":`)
		e.str(d.Tenant)
		e.lit(`,"state":`)
		e.str(d.State)
		e.lit(`,"completed":`)
		e.int(int64(d.Completed))
		if d.Retries != 0 {
			e.lit(`,"retries":`)
			e.int(int64(d.Retries))
		}
		e.lit(`,"duration":`)
		e.float(float64(d.Duration))
		e.lit(`,"at":`)
		e.float(float64(d.At))
	default:
		return b, false
	}
	e.lit("}}\n")
	return e.frame(b)
}

// payloads counts f's non-nil payload pointers: a frame the hot encoder
// writes has exactly one, its kind's.
func (f *eventFrame) payloads() int {
	n := 0
	for _, set := range [...]bool{
		f.Batch != nil, f.Generation != nil, f.Migration != nil, f.Dispatch != nil,
		f.Budget != nil, f.Joined != nil, f.Left != nil, f.Evolve != nil,
		f.Queued != nil, f.Started != nil, f.Finished != nil,
	} {
		if set {
			n++
		}
	}
	return n
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

// hot is the hand decoder of the hot frames. It declines (ok false)
// anything but a frame exactly as appendMessage or appendEvent would
// write it, newline excepted; the result is not yet validated. A frame
// is parsed into locals and copied into its storage once accepted, which
// resets every field the frame leaves out.
func (dec *decoder) hot(line []byte) (*message, *eventFrame, bool) {
	s := scanner{b: line, ok: true}
	var m message
	switch {
	case s.opt(`{"type":"event","v":{"major":`):
		ev, ok := dec.event(&s)
		return nil, ev, ok
	case s.opt(`{"type":"job_submit","task":0,"elapsed":0,"job":{`):
		sub := s.submit()
		return sub, nil, sub != nil
	case s.opt(`{"type":"done"`):
		m.Type = msgDone
	case s.opt(`{"type":"assign"`):
		m.Type = msgAssign
	default:
		return nil, nil, false
	}
	if s.opt(`,"tasks":`) {
		// Sized for every task the frame can hold, so appending never
		// moves the buffer the decoder keeps.
		if n := bytes.Count(line[s.i:], []byte(`{"id":`)); cap(dec.tasks) < n {
			dec.tasks = make([]task.Task, 0, n)
		}
		m.Tasks = s.tasks(dec.tasks[:0])
		s.ok = s.ok && len(m.Tasks) > 0 // the encoder omits an empty list
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
	if dec.m == nil {
		dec.m = new(message)
	}
	*dec.m = m
	return dec.m, nil, true
}

// eventOf is an event frame together with its payload, so one
// allocation holds both.
type eventOf[T any] struct {
	f eventFrame
	p T
}

// keep copies f and its payload p into *slot, allocating it on first use,
// and returns the copies: the caller points the frame at its payload.
func keep[T any](slot **eventOf[T], f *eventFrame, p T) (*eventFrame, *T) {
	if *slot == nil {
		*slot = new(eventOf[T])
	}
	x := *slot
	x.f, x.p = *f, p
	x.f.Type = msgEvent
	return &x.f, &x.p
}

// event is the hand decoder of a hot event frame, past its opening; the
// frame is copied into dec's storage for its kind once accepted.
func (dec *decoder) event(s *scanner) (*eventFrame, bool) {
	var f eventFrame
	f.V.Major = int(s.parseInt(strconv.IntSize))
	s.lit(`,"minor":`)
	f.V.Minor = int(s.parseInt(strconv.IntSize))
	s.lit(`},"seq":`)
	f.Seq = s.parseUint()
	if s.opt(`,"dropped":`) {
		f.Dropped = s.parseUint()
		s.ok = s.ok && f.Dropped != 0 // the encoder omits a zero
	}
	switch {
	case s.opt(`,"kind":"dispatch","dispatch":{"proc":`):
		var d observe.Dispatch
		d.Proc = int(s.parseInt(strconv.IntSize))
		s.lit(`,"task":`)
		d.Task = task.ID(s.parseInt(32))
		s.lit(`,"at":`)
		d.At = units.Seconds(s.parseFloat())
		if !s.close() {
			return nil, false
		}
		f.Kind = kindDispatch
		ev, p := keep(&dec.dispatch, &f, d)
		ev.Dispatch = p
		return ev, true
	case s.opt(`,"kind":"batch_decided","batch":{"invocation":`):
		var d observe.BatchDecision
		d.Invocation = int(s.parseInt(strconv.IntSize))
		s.lit(`,"scheduler":`)
		d.Scheduler = s.parseString()
		s.lit(`,"tasks":`)
		d.Tasks = int(s.parseInt(strconv.IntSize))
		s.lit(`,"procs":`)
		d.Procs = int(s.parseInt(strconv.IntSize))
		s.lit(`,"cost":`)
		d.Cost = units.Seconds(s.parseFloat())
		s.lit(`,"at":`)
		d.At = units.Seconds(s.parseFloat())
		if s.opt(`,"wall":`) {
			d.Wall = units.Seconds(s.parseFloat())
			s.ok = s.ok && d.Wall != 0 // the encoder omits a zero
		}
		if !s.close() {
			return nil, false
		}
		f.Kind = kindBatchDecided
		ev, p := keep(&dec.batch, &f, d)
		ev.Batch = p
		return ev, true
	case s.opt(`,"kind":"job_queued","queued":{"id":`):
		var d observe.JobQueued
		d.ID = s.parseString()
		s.lit(`,"tenant":`)
		d.Tenant = s.parseString()
		if s.opt(`,"priority":`) {
			d.Priority = int(s.parseInt(strconv.IntSize))
			s.ok = s.ok && d.Priority != 0 // the encoder omits a zero
		}
		s.lit(`,"tasks":`)
		d.Tasks = int(s.parseInt(strconv.IntSize))
		s.lit(`,"queued":`)
		d.Queued = int(s.parseInt(strconv.IntSize))
		s.lit(`,"at":`)
		d.At = units.Seconds(s.parseFloat())
		if !s.close() {
			return nil, false
		}
		f.Kind = kindJobQueued
		ev, p := keep(&dec.queued, &f, d)
		ev.Queued = p
		return ev, true
	case s.opt(`,"kind":"job_started","started":{"id":`):
		var d observe.JobStarted
		d.ID = s.parseString()
		s.lit(`,"tenant":`)
		d.Tenant = s.parseString()
		s.lit(`,"workers":`)
		d.Workers = int(s.parseInt(strconv.IntSize))
		s.lit(`,"waited":`)
		d.Waited = units.Seconds(s.parseFloat())
		s.lit(`,"at":`)
		d.At = units.Seconds(s.parseFloat())
		if !s.close() {
			return nil, false
		}
		f.Kind = kindJobStarted
		ev, p := keep(&dec.started, &f, d)
		ev.Started = p
		return ev, true
	case s.opt(`,"kind":"job_done","finished":{"id":`):
		var d observe.JobDone
		d.ID = s.parseString()
		s.lit(`,"tenant":`)
		d.Tenant = s.parseString()
		s.lit(`,"state":`)
		d.State = s.parseString()
		s.lit(`,"completed":`)
		d.Completed = int(s.parseInt(strconv.IntSize))
		if s.opt(`,"retries":`) {
			d.Retries = int(s.parseInt(strconv.IntSize))
			s.ok = s.ok && d.Retries != 0 // the encoder omits a zero
		}
		s.lit(`,"duration":`)
		d.Duration = units.Seconds(s.parseFloat())
		s.lit(`,"at":`)
		d.At = units.Seconds(s.parseFloat())
		if !s.close() {
			return nil, false
		}
		f.Kind = kindJobDone
		ev, p := keep(&dec.finished, &f, d)
		ev.Finished = p
		return ev, true
	}
	return nil, false
}

// submitFrame is a decoded job_submit: the message, its job and the job's
// retry budget, so one allocation holds all three.
type submitFrame struct {
	m      message
	job    JobSubmission
	budget int
}

// submit is the hand decoder of a job_submit frame, past its opening. It
// returns nil to decline. What it returns is fresh storage that shares no
// byte with the frame, whichever decoder reads it.
func (s *scanner) submit() *message {
	var j JobSubmission
	if s.opt(`"tenant":`) {
		j.Tenant = s.parseString()
		s.ok = s.ok && j.Tenant != "" // the encoder omits an empty tenant
		s.lit(`,`)
	}
	if s.opt(`"priority":`) {
		j.Priority = int(s.parseInt(strconv.IntSize))
		s.ok = s.ok && j.Priority != 0 // the encoder omits a zero
		s.lit(`,`)
	}
	if s.opt(`"spec":`) {
		j.Spec = s.spec()
		s.lit(`,`)
	}
	budget, hasBudget := 0, s.opt(`"retry_budget":`)
	if hasBudget {
		budget = int(s.parseInt(strconv.IntSize))
		s.lit(`,`)
	}
	s.lit(`"tasks":`)
	// Sized for every task the frame can hold; an empty list stays
	// non-nil, as encoding/json decodes [].
	j.Tasks = s.tasks(make([]task.Task, 0, bytes.Count(s.b[s.i:], []byte(`{"id":`))))
	s.lit(`}}`)
	if !s.end() {
		return nil
	}
	x := &submitFrame{m: message{Type: msgJobSubmit}, job: j, budget: budget}
	x.m.Job = &x.job
	if hasBudget {
		x.job.RetryBudget = &x.budget
	}
	return &x.m
}

// scanner is the hand decoder's cursor. Every step clears ok on a mismatch,
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

// close consumes the }} that ends an event frame, and reports whether
// that ended the input without a mismatch.
func (s *scanner) close() bool {
	s.lit(`}}`)
	return s.end()
}

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

// parseInt consumes an integer in the form strconv.AppendInt writes — no
// plus sign, no leading zero, no -0 — that fits in bits bits.
func (s *scanner) parseInt(bits int) int64 {
	neg := s.opt(`-`)
	u := s.parseUint()
	limit := uint64(1) << (bits - 1)
	if neg {
		s.ok = s.ok && u != 0 && u <= limit
		return -int64(u)
	}
	s.ok = s.ok && u < limit
	return int64(u)
}

// parseUint consumes an integer in the form strconv.AppendUint writes —
// digits only, no leading zero — that fits in 64 bits.
func (s *scanner) parseUint() uint64 {
	j, v := s.i, uint64(0)
	for ; s.ok && j < len(s.b) && '0' <= s.b[j] && s.b[j] <= '9'; j++ {
		d := uint64(s.b[j] - '0')
		s.ok = v <= math.MaxUint64/10 && v*10 <= math.MaxUint64-d
		v = v*10 + d
	}
	s.ok = s.ok && j > s.i && (j == s.i+1 || s.b[s.i] != '0')
	s.i = j
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

// str consumes a plain string and returns its contents, in place.
func (s *scanner) str() []byte {
	if !s.opt(`"`) {
		s.ok = false
		return nil
	}
	j := s.i
	for j < len(s.b) && plain(s.b[j]) {
		j++
	}
	if j == len(s.b) || s.b[j] != '"' {
		s.ok = false
		return nil
	}
	v := s.b[s.i:j]
	s.i = j + 1
	return v
}

// parseString consumes a plain string and returns a copy of it.
func (s *scanner) parseString() string { return string(s.str()) }

// tasks consumes a task list — null, or an array of {"id":…,"size":…} —
// and returns nil for null and otherwise dst with the tasks appended: the
// one task-list decoder of the assign and job_submit frames. The caller
// sizes dst for every task.
func (s *scanner) tasks(dst []task.Task) []task.Task {
	if s.opt(`null`) {
		return nil
	}
	s.lit(`[`)
	if s.opt(`]`) {
		return dst
	}
	for s.ok {
		s.lit(`{"id":`)
		id := s.parseInt(32)
		s.lit(`,"size":`)
		size := s.parseFloat()
		s.lit(`}`)
		dst = append(dst, task.Task{ID: task.ID(id), Size: units.MFlops(size)})
		if !s.opt(`,`) {
			break
		}
	}
	s.lit(`]`)
	return dst
}

// spec consumes a spec that is one plain value and returns a copy of it.
func (s *scanner) spec() json.RawMessage {
	start := s.i
	s.value(maxSpecDepth)
	if !s.ok {
		return nil
	}
	return bytes.Clone(s.b[start:s.i])
}

// value consumes one compact JSON value of plain strings, numbers, true,
// false, null, objects and arrays, whose arrays and objects nest at most
// depth deep.
func (s *scanner) value(depth int) {
	if !s.ok || s.i == len(s.b) {
		s.ok = false
		return
	}
	switch s.b[s.i] {
	case '{':
		s.ok = depth > 0
		s.i++
		if s.opt(`}`) {
			return
		}
		for s.ok {
			s.str()
			s.lit(`:`)
			s.value(depth - 1)
			if !s.opt(`,`) {
				break
			}
		}
		s.lit(`}`)
	case '[':
		s.ok = depth > 0
		s.i++
		if s.opt(`]`) {
			return
		}
		for s.ok {
			s.value(depth - 1)
			if !s.opt(`,`) {
				break
			}
		}
		s.lit(`]`)
	case '"':
		s.str()
	case 't':
		s.lit(`true`)
	case 'f':
		s.lit(`false`)
	case 'n':
		s.lit(`null`)
	default:
		// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
		s.opt(`-`)
		if !s.opt(`0`) {
			s.digits()
		}
		if s.opt(`.`) {
			s.digits()
		}
		if s.opt(`e`) || s.opt(`E`) {
			if !s.opt(`+`) {
				s.opt(`-`)
			}
			s.digits()
		}
	}
}

// digits consumes one or more decimal digits.
func (s *scanner) digits() {
	j := s.i
	for s.ok && j < len(s.b) && '0' <= s.b[j] && s.b[j] <= '9' {
		j++
	}
	s.ok = s.ok && j > s.i
	s.i = j
}
