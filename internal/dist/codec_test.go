package dist

import (
	"bytes"
	"encoding/json"
	"reflect"
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
// where json.Marshal fails, and decodeHot to read its frame back as v.
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
	if !ok || !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("hand encoding of %+v:\n got %q (ok %v)\nwant %q", v, got, ok, want)
	}
	m, ev, ok := decodeHot(got[:len(got)-1])
	if back := either(m, ev); !ok || !reflect.DeepEqual(back, v) {
		t.Fatalf("decodeHot(%q) = %+v (ok %v), want %+v", got, back, ok, v)
	}
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
// at a time, on an otherwise hot done frame: the hand encoder must
// decline every one, so a field added to message later can never be
// dropped from a frame by the hand path.
func TestHotMessageShape(t *testing.T) {
	hot := map[string]bool{"Type": true, "Tasks": true, "Task": true, "Elapsed": true, "Real": true}
	typ := reflect.TypeOf(message{})
	for i := range typ.NumField() {
		field := typ.Field(i)
		if hot[field.Name] {
			continue
		}
		m := message{Type: msgDone, Task: 1, Elapsed: 1}
		v := reflect.ValueOf(&m).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
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
			t.Errorf("hand encoder took a done frame with %s set: %s", field.Name, b)
		}
	}
}

// TestHotDecodeAllocations pins what the hand path costs: one allocation
// for a done frame or a dispatch event, two for an assign.
func TestHotDecodeAllocations(t *testing.T) {
	for name, want := range map[string]float64{
		`{"type":"done","task":7,"elapsed":1.338,"real":0.0013}`:                                                                      1,
		`{"type":"assign","tasks":[{"id":7,"size":420.5},{"id":12,"size":33}],"task":0,"elapsed":0}`:                                  2,
		`{"type":"event","v":{"major":1,"minor":3},"seq":4,"dropped":7,"kind":"dispatch","dispatch":{"proc":12,"task":0,"at":18.25}}`: 1,
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
