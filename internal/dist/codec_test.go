package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pnsched/internal/observe"
	"pnsched/internal/task"
	"pnsched/internal/units"
)

// FuzzWireCodec holds the hand codec of the hot frames to encoding/json,
// the reference it must never drift from. Whatever the input:
//
//   - decodeWireMessage, whichever of its paths takes the frame, returns
//     exactly what decodeProbe — the reflective reference decoder —
//     returns: equal values (reflect.DeepEqual, so the same nil-ness) and
//     the same error, or the same absence of one;
//   - a frame decodeHot accepts is byte for byte what the hand encoder
//     writes for the value it decoded;
//   - for the done, assign and dispatch-event values built from the
//     remaining inputs, the hand encoder writes exactly json.Marshal's
//     bytes plus a newline, declines exactly where json.Marshal fails,
//     and what it writes decodes back through decodeHot to the value.
//
// The seed corpus under testdata/fuzz/FuzzWireCodec pins zero, negative
// zero, sub-1e-6 and ≥1e21 floats, non-finite ones, the int32 extremes,
// empty task lists, and the near-misses the hand decoder must decline.
func FuzzWireCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte, id int32, x, y float64, seq uint64, n uint8) {
		checkHotDecoding(t, line)

		var tasks []task.Task // nil when empty, as decoding leaves it
		for i := range int(n % 5) {
			tasks = append(tasks, task.Task{ID: task.ID(id + int32(i)), Size: units.MFlops([]float64{x, y}[i%2])})
		}
		for _, v := range []any{
			&message{Type: msgDone, Task: id, Elapsed: x, Real: y},
			&message{Type: msgAssign, Tasks: tasks},
			&eventFrame{Type: msgEvent, V: wireVersion{Major: int(n), Minor: int(id)}, Seq: seq,
				Dropped: seq >> 7, Kind: kindDispatch,
				Dispatch: &observe.Dispatch{Proc: int(id), Task: task.ID(id), At: units.Seconds(x)}},
		} {
			checkHotEncoding(t, v)
		}
	})
}

// FuzzJobCodec holds the hand codec of the per-job frames — the
// job_submit request and the batch_decided, job_queued, job_started and
// job_done events — to encoding/json, as FuzzWireCodec holds the
// per-task frames. Whatever the input:
//
//   - line decodes as checkHotDecoding requires: decodeWireMessage agrees
//     with decodeProbe, and a frame decodeHot accepts re-encodes to
//     itself;
//   - a job_submit built from the tenant, the spec (absent when empty),
//     k, x and n, with the retry budget both nil and set and the task
//     list nil, empty or short as n picks, and the four job event values
//     built from the tenant, id, scheduler (the state of job_done) and
//     numbers, each pass checkHotEncoding: the hand encoder writes
//     json.Marshal's bytes, or declines exactly where json.Marshal fails
//     or a string or the spec is not plain.
//
// The seeds below and the corpus under testdata/fuzz/FuzzJobCodec pin
// the near-misses: strings holding '<', '&', '"', '\\', U+2028, other
// non-ASCII and invalid UTF-8; specs with spacing, with HTML characters,
// invalid or too deep; a null task list against an empty one; and keys
// reordered, repeated, cased differently or zero where omitempty drops
// them.
func FuzzJobCodec(f *testing.F) {
	const submit = `{"type":"job_submit","task":0,"elapsed":0,"job":{"tenant":"gold","priority":2,"spec":{"name":"PN","generations":500},"retry_budget":8,"tasks":[{"id":0,"size":420.5},{"id":1,"size":33}]}}`
	const done = `{"type":"event","v":{"major":1,"minor":3},"seq":15,"kind":"job_done","finished":{"id":"job-0007","tenant":"gold","state":"done","completed":200,"retries":5,"duration":30.5,"at":87.25}}`
	lines := []string{
		submit,
		done,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"tasks":null}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"tasks":[]}}`,
		`{"type":"job_submit","job":{"tenant":"gold","tasks":[]},"task":0,"elapsed":0}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"priority":2,"tenant":"gold","tasks":[]}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"Tenant":"gold","tasks":[]}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"tenant":"a","tenant":"b","tasks":[]}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"tenant":"","tasks":[]}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"priority":0,"tasks":[]}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"spec":{"name": "PN"},"tasks":[]}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"spec":{"name":"\u003cPN\u003e"},"tasks":[]}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"spec":{"a":},"tasks":[]}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"spec":01,"tasks":[]}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"tenant":"a\u0026b","tasks":[]}}`,
		`{"type":"job_submit","task":1,"elapsed":0,"job":{"tasks":[]}}`,
		`{"type":"job_submit","task":0,"elapsed":-0,"job":{"tasks":[]}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":15,"kind":"job_done","finished":{"tenant":"gold","id":"job-0007","state":"done","completed":200,"duration":30.5,"at":87.25}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":15,"kind":"job_done","Finished":{"id":"job-0007","tenant":"gold","state":"done","completed":200,"duration":30.5,"at":87.25}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":15,"kind":"job_done","finished":{"ID":"job-0007","tenant":"gold","state":"done","completed":200,"duration":30.5,"at":87.25}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":15,"kind":"job_done","finished":{"id":"job-0007","tenant":"gold","state":"done","completed":200,"retries":0,"duration":30.5,"at":87.25}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":15,"kind":"job_done","finished":{"id":"job\u00267","tenant":"gold","state":"done","completed":200,"duration":30.5,"at":87.25}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":15,"kind":"job_queued","finished":{"id":"job-0007","tenant":"gold","state":"done","completed":200,"duration":30.5,"at":87.25}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":1,"kind":"batch_decided","batch":{"invocation":3,"scheduler":"PN","tasks":200,"procs":50,"cost":0.125,"at":17.5,"wall":0}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":13,"kind":"job_queued","queued":{"id":"job-0007","tenant":"gold","priority":0,"tasks":200,"queued":3,"at":52.5}}`,
	}
	strs := []string{"gold", "", "a<b", "a&b", "a>b", `a"b`, `a\b`, "a\u2028b", "é", "\xff", "\x7f", "tab\there"}
	specs := []string{
		``, `{"name":"PN","generations":500}`, `null`, `"x y"`, `[1,-0.5e+3,true,false,null,{}]`,
		`{"name": "PN"}`, ` {"name":"PN"}`, `{"name":"<PN>"}`, `{"name":"a&b"}`, `{"a":}`, `{"a":"b\"c"}`,
		`{"a":"é"}`, `01`, `1.`, `-`, `1e`, `{"a":1}x`, strings.Repeat("[", 33) + strings.Repeat("]", 33),
		strings.Repeat("[", 32) + strings.Repeat("]", 32),
		strings.Repeat(`{"a":`, 33) + "1" + strings.Repeat("}", 33),
		strings.Repeat(`{"a":`, 32) + "1" + strings.Repeat("}", 32),
	}
	for i, line := range lines {
		f.Add([]byte(line), strs[i%len(strs)], "job-0007", "PN", []byte(specs[i%len(specs)]), i-3, 30.5, uint8(i))
	}
	for i, s := range strs {
		f.Add([]byte(submit), s, s, s, []byte(specs[i%len(specs)]), i, 1e-7, uint8(i))
	}
	for i, spec := range specs {
		f.Add([]byte(done), "gold", "job-0007", "done", []byte(spec), 0, -0.0, uint8(i))
	}
	f.Fuzz(func(t *testing.T, line []byte, tenant, id, sched string, spec []byte, k int, x float64, n uint8) {
		checkHotDecoding(t, line)

		var tasks []task.Task // nil, as decoding a null list leaves it
		switch n % 3 {
		case 1:
			tasks = []task.Task{}
		case 2:
			tasks = []task.Task{{ID: task.ID(k), Size: units.MFlops(x)}, {ID: task.ID(n), Size: 1.5}}
		}
		var raw json.RawMessage // nil when empty, as decoding an absent spec leaves it
		if len(spec) > 0 {
			raw = spec
		}
		budget := k
		for _, retry := range []*int{nil, &budget} {
			checkHotEncoding(t, &message{Type: msgJobSubmit, Job: &JobSubmission{
				Tenant: tenant, Priority: k, Spec: raw, RetryBudget: retry, Tasks: tasks}})
		}
		v, at := wireVersion{Major: ProtoMajor, Minor: int(n)}, units.Seconds(x)
		for _, ev := range []*eventFrame{
			{Kind: kindBatchDecided, Batch: &observe.BatchDecision{
				Invocation: k, Scheduler: sched, Tasks: int(n), Procs: k, Cost: at, At: at, Wall: at}},
			{Kind: kindJobQueued, Queued: &observe.JobQueued{
				ID: id, Tenant: tenant, Priority: k, Tasks: int(n), Queued: k, At: at}},
			{Kind: kindJobStarted, Started: &observe.JobStarted{
				ID: id, Tenant: tenant, Workers: int(n), Waited: at, At: at}},
			{Kind: kindJobDone, Finished: &observe.JobDone{
				ID: id, Tenant: tenant, State: sched, Completed: k, Retries: int(n), Duration: at, At: at}},
		} {
			ev.Type, ev.V, ev.Seq, ev.Dropped = msgEvent, v, uint64(k), uint64(n)
			checkHotEncoding(t, ev)
		}
	})
}

// checkHotDecoding requires decodeWireMessage, whichever of its paths
// takes line, to return exactly what decodeProbe — the reflective
// reference decoder — returns: equal values (reflect.DeepEqual, so the
// same nil-ness) and the same error, or the same absence of one. A line
// decodeHot accepts must be byte for byte what the hand encoder writes
// for the value it decoded.
func checkHotDecoding(t *testing.T, line []byte) {
	t.Helper()
	if len(line) <= maxFrame {
		m1, ev1, err1 := decodeWireMessage(line)
		m2, ev2, err2 := decodeProbe(line)
		if errText(err1) != errText(err2) || !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(ev1, ev2) {
			t.Fatalf("decode of %q:\n got (%+v, %+v, %v)\nwant (%+v, %+v, %v)", line, m1, ev1, err1, m2, ev2, err2)
		}
	}
	if m, ev, ok := decodeHot(line); ok {
		again, ok := encodeHot(either(m, ev))
		if !ok || !bytes.Equal(again, append(line[:len(line):len(line)], '\n')) {
			t.Fatalf("decodeHot accepted %q, which re-encodes as %q", line, again)
		}
	}
}

// FuzzDecoderReuse decodes b right after a on one decoder: the result
// is exactly a fresh decode of b (reflect.DeepEqual, and the same
// error), so nothing of a's frame — its tasks, its real time, its drop
// count — leaks into the next one.
func FuzzDecoderReuse(f *testing.F) {
	frames := []string{
		`{"type":"assign","tasks":[{"id":7,"size":420.5},{"id":12,"size":33}],"task":0,"elapsed":0}`,
		`{"type":"done","task":7,"elapsed":1.338,"real":0.0013}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":4,"dropped":7,"kind":"dispatch","dispatch":{"proc":12,"task":0,"at":18.25}}`,
		`{"type":"done","task":8,"elapsed":2}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":5,"kind":"dispatch","dispatch":{"proc":1,"task":3,"at":19}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":1,"kind":"batch_decided","batch":{"invocation":3,"scheduler":"PN","tasks":200,"procs":50,"cost":0.125,"at":17.5,"wall":0.0625}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":6,"kind":"batch_decided","batch":{"invocation":4,"scheduler":"MM","tasks":8,"procs":2,"cost":0,"at":18}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":13,"kind":"job_queued","queued":{"id":"job-0007","tenant":"gold","priority":2,"tasks":200,"queued":3,"at":52.5}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":14,"dropped":2,"kind":"job_started","started":{"id":"job-0007","tenant":"gold","workers":3,"waited":4.25,"at":56.75}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":15,"kind":"job_done","finished":{"id":"job-0007","tenant":"gold","state":"done","completed":200,"retries":5,"duration":30.5,"at":87.25}}`,
		`{"type":"event","v":{"major":1,"minor":3},"seq":16,"kind":"job_done","finished":{"id":"job-0008","tenant":"","state":"failed","completed":0,"duration":0,"at":88}}`,
	}
	for _, a := range frames {
		for _, b := range frames {
			f.Add([]byte(a), []byte(b))
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var dec decoder
		dec.decode(a)
		m1, ev1, err1 := dec.decode(b)
		m2, ev2, err2 := decodeWireMessage(b)
		if errText(err1) != errText(err2) || !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(ev1, ev2) {
			t.Fatalf("decode of %q after %q:\n got (%+v, %+v, %v)\nwant (%+v, %+v, %v)", b, a, m1, ev1, err1, m2, ev2, err2)
		}
	})
}

// checkHotEncoding requires the hand encoder to write json.Marshal's
// bytes for v (a *message or an *eventFrame), or to decline exactly
// where json.Marshal fails or v holds a string or spec that is not plain
// (plainValue), and decodeHot to read its frame back as v.
func checkHotEncoding(t *testing.T, v any) {
	t.Helper()
	got, ok := encodeHot(v)
	want, err := json.Marshal(v)
	if err != nil {
		if ok {
			t.Fatalf("hand encoder wrote %q for %+v, which json.Marshal refuses: %v", got, v, err)
		}
		return
	}
	if !plainValue(reflect.ValueOf(v)) {
		if ok {
			t.Fatalf("hand encoder wrote %q for %+v, which holds a string or spec that is not plain", got, v)
		}
		return
	}
	if !ok || !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("hand encoding of %+v:\n got %q (ok %v)\nwant %q", v, got, ok, want)
	}
	m, ev, ok := decodeHot(got[:len(got)-1])
	if back := either(m, ev); !ok || !reflect.DeepEqual(back, v) {
		t.Fatalf("decodeHot(%q) = %+v (ok %v), want %+v", got, back, ok, v)
	}
}

// plainValue reports whether every string in v is plain and every
// json.RawMessage in it a plain spec, by the codec's rules but not its
// code: a plain string is printable ASCII that json.Marshal quotes
// without escaping anything, and a plain spec is printable ASCII without
// a backslash that json.Marshal leaves as it is and that nests at most
// maxSpecDepth deep.
func plainValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		s := v.String()
		quoted, _ := json.Marshal(s)
		return printable(s) && string(quoted) == `"`+s+`"`
	case reflect.Pointer, reflect.Interface:
		return v.IsNil() || plainValue(v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			if !plainValue(v.Field(i)) {
				return false
			}
		}
	case reflect.Slice:
		if raw, ok := v.Interface().(json.RawMessage); ok {
			if len(raw) == 0 {
				return true // omitted
			}
			again, err := json.Marshal(raw)
			return err == nil && printable(string(raw)) && !bytes.ContainsRune(raw, '\\') &&
				bytes.Equal(again, raw) && nesting(raw) <= maxSpecDepth
		}
		for i := range v.Len() {
			if !plainValue(v.Index(i)) {
				return false
			}
		}
	}
	return true
}

// printable reports whether every byte of s is printable ASCII.
func printable(s string) bool {
	for i := range len(s) {
		if s[i] < ' ' || s[i] > '~' {
			return false
		}
	}
	return true
}

// nesting is how deeply the arrays and objects of a valid JSON value
// without escapes nest.
func nesting(raw []byte) int {
	var depth, deepest int
	var inString bool
	for _, c := range raw {
		switch {
		case c == '"':
			inString = !inString
		case inString:
		case c == '{' || c == '[':
			depth++
			deepest = max(deepest, depth)
		case c == '}' || c == ']':
			depth--
		}
	}
	return deepest
}

// encodeHot is the hand encoder of v, a *message or an *eventFrame.
func encodeHot(v any) ([]byte, bool) {
	switch v := v.(type) {
	case *message:
		return appendMessage(nil, v)
	case *eventFrame:
		return appendEvent(nil, v)
	}
	return nil, false
}

// decodeHot is the hand decoder on fresh storage.
func decodeHot(line []byte) (*message, *eventFrame, bool) {
	var dec decoder
	return dec.hot(line)
}

// either is whichever of a decoder's two results is set.
func either(m *message, ev *eventFrame) any {
	if m != nil {
		return m
	}
	return ev
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestHotMessageShape sets each envelope field outside the hot shape, one
// at a time, on an otherwise hot done frame and on an otherwise hot
// job_submit: the hand encoder must decline every one, so a field added
// to message later can never be dropped from a frame by the hand path.
func TestHotMessageShape(t *testing.T) {
	for _, c := range []struct {
		base message
		hot  map[string]bool
	}{
		{message{Type: msgDone, Task: 1, Elapsed: 1},
			map[string]bool{"Type": true, "Tasks": true, "Task": true, "Elapsed": true, "Real": true}},
		{message{Type: msgJobSubmit, Job: &JobSubmission{Tenant: "t", Tasks: []task.Task{{ID: 1, Size: 2}}}},
			map[string]bool{"Type": true, "Job": true}},
	} {
		if _, ok := appendMessage(nil, &c.base); !ok {
			t.Fatalf("hand encoder declined the %s base frame", c.base.Type)
		}
		typ := reflect.TypeOf(message{})
		for i := range typ.NumField() {
			field := typ.Field(i)
			if c.hot[field.Name] {
				continue
			}
			m := c.base
			v := reflect.ValueOf(&m).Elem().Field(i)
			switch v.Kind() {
			case reflect.String:
				v.SetString("x")
			case reflect.Int32:
				v.SetInt(1)
			case reflect.Float64:
				v.SetFloat(1)
			case reflect.Pointer:
				v.Set(reflect.New(field.Type.Elem()))
			case reflect.Slice:
				v.Set(reflect.MakeSlice(field.Type, 1, 1))
			default:
				t.Fatalf("field %s has kind %s: teach this test and message.hot about it", field.Name, v.Kind())
			}
			if b, ok := appendMessage(nil, &m); ok {
				t.Errorf("hand encoder took a %s frame with %s set: %s", m.Type, field.Name, b)
			}
		}
	}
}

// TestHotPayloadFields sets every field of each per-job payload to a
// value its omitempty keeps: the hand encoder must still write
// json.Marshal's bytes, so a field added to JobSubmission or to one of
// the hot job event payloads later fails here instead of being dropped
// from frames by the hand path.
func TestHotPayloadFields(t *testing.T) {
	fill := func(p any) {
		v := reflect.ValueOf(p).Elem()
		for i := range v.NumField() {
			f := v.Field(i)
			switch {
			case f.Kind() == reflect.String:
				f.SetString("x")
			case f.CanInt():
				f.SetInt(3)
			case f.CanFloat():
				f.SetFloat(1.5)
			case f.Type() == reflect.TypeOf(json.RawMessage(nil)):
				f.SetBytes([]byte(`{"name":"MM"}`))
			case f.Type() == reflect.TypeOf([]task.Task(nil)):
				f.Set(reflect.ValueOf([]task.Task{{ID: 1, Size: 2.5}}))
			case f.Kind() == reflect.Pointer && f.Type().Elem().Kind() == reflect.Int:
				f.Set(reflect.New(f.Type().Elem()))
				f.Elem().SetInt(4)
			default:
				t.Fatalf("%T field %s has type %s: teach this test and the hand codec about it",
					p, v.Type().Field(i).Name, f.Type())
			}
		}
	}
	var (
		job      JobSubmission
		batch    observe.BatchDecision
		queued   observe.JobQueued
		started  observe.JobStarted
		finished observe.JobDone
	)
	for _, p := range []any{&job, &batch, &queued, &started, &finished} {
		fill(p)
	}
	v := wireVersion{Major: ProtoMajor, Minor: ProtoMinor}
	for _, frame := range []any{
		&message{Type: msgJobSubmit, Job: &job},
		&eventFrame{Type: msgEvent, V: v, Seq: 1, Kind: kindBatchDecided, Batch: &batch},
		&eventFrame{Type: msgEvent, V: v, Seq: 2, Kind: kindJobQueued, Queued: &queued},
		&eventFrame{Type: msgEvent, V: v, Seq: 3, Kind: kindJobStarted, Started: &started},
		&eventFrame{Type: msgEvent, V: v, Seq: 4, Kind: kindJobDone, Finished: &finished},
	} {
		if _, ok := encodeHot(frame); !ok {
			t.Errorf("hand encoder declined %+v", frame)
		}
		checkHotEncoding(t, frame)
	}
}

// TestHotEventDeclinesExtras: every hot event kind, carrying its own
// payload, is taken by the hand encoder; the same frame with any one
// other payload set as well, or with a Type other than "event", is
// declined, so it reaches encoding/json, which writes what the frame
// holds.
func TestHotEventDeclinesExtras(t *testing.T) {
	v := wireVersion{Major: ProtoMajor, Minor: ProtoMinor}
	kinds := []eventFrame{
		{Kind: kindDispatch, Dispatch: &observe.Dispatch{Proc: 1, Task: 2, At: 3}},
		{Kind: kindBatchDecided, Batch: &observe.BatchDecision{Invocation: 1, Scheduler: "PN", Tasks: 4, Procs: 2}},
		{Kind: kindJobQueued, Queued: &observe.JobQueued{ID: "j", Tenant: "t", Tasks: 3}},
		{Kind: kindJobStarted, Started: &observe.JobStarted{ID: "j", Tenant: "t", Workers: 2}},
		{Kind: kindJobDone, Finished: &observe.JobDone{ID: "j", Tenant: "t", State: "done", Completed: 3}},
	}
	payloads := 0
	typ := reflect.TypeOf(eventFrame{})
	for i := range typ.NumField() {
		if typ.Field(i).Type.Kind() == reflect.Pointer {
			payloads++
		}
	}
	if payloads != 11 {
		t.Fatalf("eventFrame has %d payload pointers, this table was written for 11", payloads)
	}
	for _, base := range kinds {
		base.Type, base.V, base.Seq = msgEvent, v, 9
		if _, ok := appendEvent(nil, &base); !ok {
			t.Errorf("%s: hand encoder declined the plain frame", base.Kind)
		}
		wrong := base
		wrong.Type = "evnt"
		if _, ok := appendEvent(nil, &wrong); ok {
			t.Errorf("%s: hand encoder took Type %q", base.Kind, wrong.Type)
		}
		for i := range typ.NumField() {
			field := reflect.ValueOf(&base).Elem().Field(i)
			if field.Kind() != reflect.Pointer || !field.IsNil() {
				continue
			}
			extra := base
			reflect.ValueOf(&extra).Elem().Field(i).Set(reflect.New(field.Type().Elem()))
			if _, ok := appendEvent(nil, &extra); ok {
				t.Errorf("%s: hand encoder took the frame with %s set as well", base.Kind, typ.Field(i).Name)
			}
		}
	}
}

// TestHotJobFrames reads the golden frames of the hot job events and a
// canonical job_submit through the hand decoder, which must take each,
// and writes each back byte for byte with the hand encoder.
func TestHotJobFrames(t *testing.T) {
	lines := []string{
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"tenant":"gold","priority":2,"spec":{"name":"PN","generations":500},"retry_budget":8,"tasks":[{"id":0,"size":420.5},{"id":1,"size":33}]}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"tasks":null}}`,
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"retry_budget":0,"tasks":[]}}`,
	}
	for _, name := range []string{"event_batch_decided", "event_job_queued", "event_job_started", "event_job_done"} {
		golden, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, strings.TrimSuffix(string(golden), "\n"))
	}
	for _, line := range lines {
		m, ev, ok := decodeHot([]byte(line))
		if !ok {
			t.Errorf("hand decoder declined %s", line)
			continue
		}
		if again, ok := encodeHot(either(m, ev)); !ok || string(again) != line+"\n" {
			t.Errorf("hand encoder rewrote %s as %q (ok %v)", line, again, ok)
		}
	}
}

// TestJobSubmitOwnsItsStorage decodes a job_submit from a buffer, as
// readFrame hands frames back in place, then overwrites the buffer: the
// tenant, spec and tasks decoded from it must not change.
func TestJobSubmitOwnsItsStorage(t *testing.T) {
	const frame = `{"type":"job_submit","task":0,"elapsed":0,"job":{"tenant":"gold","spec":{"name":"PN"},"tasks":[{"id":4,"size":9.5},{"id":5,"size":1}]}}`
	want := JobSubmission{Tenant: "gold", Spec: json.RawMessage(`{"name":"PN"}`),
		Tasks: []task.Task{{ID: 4, Size: 9.5}, {ID: 5, Size: 1}}}
	for _, decode := range []func([]byte) (*message, *eventFrame, bool){
		decodeHot,
		func(line []byte) (*message, *eventFrame, bool) {
			m, ev, err := decodeWireMessage(line)
			return m, ev, err == nil
		},
	} {
		buf := []byte(frame)
		m, _, ok := decode(buf)
		if !ok || m == nil || m.Job == nil {
			t.Fatalf("decoding %s: (%+v, %v)", frame, m, ok)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		if !reflect.DeepEqual(*m.Job, want) {
			t.Errorf("after the buffer was overwritten the job reads %+v, want %+v", *m.Job, want)
		}
	}
}

// TestHotDecodeAllocations pins what the hand path costs: one allocation
// for a done frame or a dispatch event, two for an assign, and four for a
// job_submit or a job_done event.
func TestHotDecodeAllocations(t *testing.T) {
	for name, want := range map[string]float64{
		`{"type":"done","task":7,"elapsed":1.338,"real":0.0013}`:                                                                      1,
		`{"type":"assign","tasks":[{"id":7,"size":420.5},{"id":12,"size":33}],"task":0,"elapsed":0}`:                                  2,
		`{"type":"event","v":{"major":1,"minor":3},"seq":4,"dropped":7,"kind":"dispatch","dispatch":{"proc":12,"task":0,"at":18.25}}`: 1,
		// The frame, the tenant, the spec and the task list; 16 on the
		// reflective path.
		`{"type":"job_submit","task":0,"elapsed":0,"job":{"tenant":"gold","spec":{"name":"PN","generations":500},"retry_budget":8,"tasks":[{"id":0,"size":420.5},{"id":1,"size":33}]}}`: 4,
		// The frame and its three strings; 13 on the reflective path.
		`{"type":"event","v":{"major":1,"minor":3},"seq":15,"kind":"job_done","finished":{"id":"job-0007","tenant":"gold","state":"done","completed":200,"retries":5,"duration":30.5,"at":87.25}}`: 4,
	} {
		line := []byte(name)
		if got := testing.AllocsPerRun(100, func() {
			if _, _, err := decodeWireMessage(line); err != nil {
				t.Fatal(err)
			}
		}); got != want {
			t.Errorf("decoding %s: %v allocations, want %v", name, got, want)
		}
	}
}

// TestReusedDecoderAllocations pins what a read loop's decoder costs
// once its storage is warm: nothing, for a done frame, a dispatch event
// or an assign no longer than the ones before it.
func TestReusedDecoderAllocations(t *testing.T) {
	var dec decoder
	frames := [][]byte{
		[]byte(`{"type":"done","task":7,"elapsed":1.338,"real":0.0013}`),
		[]byte(`{"type":"assign","tasks":[{"id":7,"size":420.5},{"id":12,"size":33}],"task":0,"elapsed":0}`),
		[]byte(`{"type":"event","v":{"major":1,"minor":3},"seq":4,"dropped":7,"kind":"dispatch","dispatch":{"proc":12,"task":0,"at":18.25}}`),
	}
	for _, line := range frames {
		if _, _, err := dec.decode(line); err != nil { // warms the storage
			t.Fatal(err)
		}
	}
	for _, line := range frames {
		if got := testing.AllocsPerRun(100, func() {
			if _, _, err := dec.decode(line); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("reused decoder on %s: %v allocations, want 0", line, got)
		}
	}
}
