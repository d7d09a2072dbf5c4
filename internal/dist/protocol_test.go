package dist

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"

	"pnsched/internal/units"
)

func TestDoneMessagePreservesTaskZero(t *testing.T) {
	b, err := json.Marshal(&message{Type: msgDone, Task: 0, Elapsed: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	var m message
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Task != 0 || m.Elapsed != 1.5 {
		t.Errorf("decoded %+v, want task 0 elapsed 1.5", m)
	}
	if !strings.Contains(string(b), `"task":0`) {
		t.Errorf("encoded done message %s omits task id 0", b)
	}
}

func TestHelloValidation(t *testing.T) {
	cases := []struct {
		name string
		line string
		ok   bool
	}{
		{"valid", `{"type":"hello","name":"w1","rate":100}`, true},
		{"empty name", `{"type":"hello","rate":100}`, false},
		{"zero rate", `{"type":"hello","name":"w1"}`, false},
		{"negative rate", `{"type":"hello","name":"w1","rate":-5}`, false},
		{"garbage", `not json`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, _, err := decodeWireMessage([]byte(c.line))
			if c.ok && err != nil {
				t.Fatalf("decodeWireMessage(%s) = %v", c.line, err)
			}
			if !c.ok && err == nil {
				t.Fatalf("decodeWireMessage(%s) accepted invalid hello (%+v)", c.line, m)
			}
			if c.ok && (m.Name != "w1" || units.Rate(m.Rate) != units.Rate(100)) {
				t.Errorf("decoded hello = %q, %v; want w1, 100", m.Name, m.Rate)
			}
		})
	}
}

func TestDecodeWireMessageSkipsUnknownTypes(t *testing.T) {
	m, ev, err := decodeWireMessage([]byte(`{"type":"heartbeat","beat":3}`))
	if m != nil || ev != nil || err != nil {
		t.Fatalf("unknown frame type decoded to (%v, %v, %v); want all nil (skip)", m, ev, err)
	}
}

func TestReadFrameBounds(t *testing.T) {
	big := strings.Repeat("x", maxFrame+2) + "\n"
	if _, err := readFrame(bufio.NewReader(strings.NewReader(big))); err != errFrameTooBig {
		t.Fatalf("oversized frame read error = %v, want errFrameTooBig", err)
	}
	br := bufio.NewReader(strings.NewReader("{\"type\":\"hello\"}\nrest"))
	line, err := readFrame(br)
	if err != nil || string(line) != `{"type":"hello"}` {
		t.Fatalf("readFrame = %q, %v", line, err)
	}

	// A line longer than the reader's buffer is copied out whole; one
	// that fits is handed out in place, at no allocation.
	long := strings.Repeat("y", 3*4096)
	br = bufio.NewReader(strings.NewReader(long + "\n" + long + "\n"))
	for range 2 {
		if line, err := readFrame(br); err != nil || string(line) != long {
			t.Fatalf("long frame read as %d bytes, %v; want %d", len(line), err, len(long))
		}
	}
	br = bufio.NewReader(repeatReader("{\"type\":\"done\",\"task\":1,\"elapsed\":1}\n"))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := readFrame(br); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("reading a frame that fits the buffer allocated %v times, want 0", allocs)
	}
}

// repeatReader yields the same line for ever.
type repeatReader string

func (r repeatReader) Read(p []byte) (int, error) { return copy(p, r), nil }
