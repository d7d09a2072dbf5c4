package dist

import (
	"bufio"
	"log/slog"
	"net"

	"pnsched/internal/task"
)

// This file is the package's wire surface for code outside it — the
// job dispatcher (internal/jobs), which builds and reads job_* frames
// as a Pool owner, and the benchmark's codec probes. The protocol
// types stay unexported (their lowercase names are what the docs-drift
// gate and the wire spec key on); aliases and thin wrappers re-export
// exactly what those callers need: the envelope, framing, task
// conversion, and the watch-serving loop.

// Message is the control envelope of the JSON-lines protocol — the
// exported name of the message type, for sibling runtimes building and
// decoding frames.
type Message = message

// WireTask is the on-the-wire form of one task.
type WireTask = wireTask

// Exported message-type constants, aliasing the wire grammar.
const (
	MsgAssign    = msgAssign
	MsgDone      = msgDone
	MsgJobSubmit = msgJobSubmit
	MsgJobStatus = msgJobStatus
	MsgJobCancel = msgJobCancel
	MsgJobResult = msgJobResult
)

// ReadFrame reads one newline-terminated frame, enforcing the
// protocol's frame bound. The frame may be br's own buffer: it is valid
// only until the next read from br, so copy it to keep it. See
// readFrame.
func ReadFrame(br *bufio.Reader) ([]byte, error) { return readFrame(br) }

// DecodeWireMessage parses and validates one wire frame; exactly one
// of the returns is non-nil on success, and unknown frame types decode
// to (nil, nil, nil). See decodeWireMessage.
func DecodeWireMessage(line []byte) (*Message, *eventFrame, error) {
	return decodeWireMessage(line)
}

// TasksToWire converts tasks to their wire form.
func TasksToWire(ts []task.Task) []WireTask { return toWire(ts) }

// TasksFromWire converts wire tasks back to tasks.
func TasksFromWire(ws []WireTask) []task.Task { return fromWire(ws) }

// Close terminates every subscription and marks the broadcaster
// closed; subsequent subscriptions are stillborn. For callers shutting
// down a broadcaster no Pool owns (a Pool closes its own).
func (b *Broadcaster) Close() { b.closeAll() }

// ServeWatch runs one already-handshaken watch client against a
// broadcaster: it subscribes, sends the versioned welcome, and streams
// frames — each stamped with the client's cumulative drop count —
// until either side hangs up. A reader goroutine watches the
// connection purely to detect disconnection, so an abandoned watcher
// is unsubscribed promptly instead of drop-counting forever. The
// caller has consumed and validated the client's watch frame; br is
// the connection's reader positioned after it. Blocks until the
// client is gone; closes conn. Safe against a concurrently closing
// broadcaster (the subscription comes back stillborn and the stream
// ends immediately).
func ServeWatch(conn net.Conn, br *bufio.Reader, b *Broadcaster, log *slog.Logger) {
	sub := b.subscribe()
	go func() {
		// Drain (and ignore) anything the client sends; a read error
		// means it is gone.
		for {
			if _, err := readFrame(br); err != nil {
				break
			}
		}
		b.unsubscribe(sub)
		conn.Close()
	}()

	// The welcome goes out with whatever replay is already queued; the
	// stream then ends when the queue closes or a write fails.
	w := newFrameWriter(conn)
	welcome := message{Type: msgWelcome, Proto: &wireVersion{Major: ProtoMajor, Minor: ProtoMinor}}
	if w.message(&welcome) == nil {
		var cur eventFrame // reused: each frame is copied in, not allocated
		drain(w, sub.out, func(f eventFrame) error {
			cur = f
			cur.Dropped = sub.dropped.Load()
			return w.event(&cur)
		})
	}
	b.unsubscribe(sub)
	conn.Close()
	if log != nil {
		log.Info("watch client unsubscribed", "remote", conn.RemoteAddr())
	}
}
