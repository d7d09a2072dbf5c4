package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pnsched/internal/observe"
)

// watchHandshakeTimeout bounds the dial-to-welcome exchange so a client
// pointed at something that is not a scheduling server fails fast
// instead of hanging on a silent socket.
const watchHandshakeTimeout = 10 * time.Second

// Watcher is a live subscription to a scheduling server's event
// stream, created with WatchEvents. Events are delivered to the
// observer in server publication order on a single goroutine; the
// Watcher additionally tracks the server-reported count of frames it
// lost to the bounded send queue (Dropped).
type Watcher struct {
	conn net.Conn
	stop func() bool // detaches the context watcher

	dropped atomic.Uint64
	frames  atomic.Uint64

	done chan struct{}
	mu   sync.Mutex
	err  error
}

// WatchEvents connects to a scheduling server at addr, performs the
// watch handshake, and streams the server's events to o (which may be
// nil to only count frames). The dial and handshake happen
// synchronously, so a returned error means no subscription exists;
// after a nil return, events flow on a background goroutine until the
// server closes the stream, the connection fails, or ctx is cancelled
// — Wait reports which.
func WatchEvents(ctx context.Context, addr string, o observe.Observer) (*Watcher, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("dist: watch %s: %w", addr, err)
	}

	conn.SetDeadline(time.Now().Add(watchHandshakeTimeout))
	enc := json.NewEncoder(conn)
	if encErr := enc.Encode(&message{
		Type:  msgWatch,
		Proto: &wireVersion{Major: ProtoMajor, Minor: ProtoMinor},
	}); encErr != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: watch %s: sending handshake: %w", addr, encErr)
	}
	br := bufio.NewReader(conn)
	welcome, err := readWelcome(br)
	if err != nil {
		conn.Close()
		if isClosedErr(err) {
			// The server hung up instead of welcoming us: streaming is
			// not enabled there, or it is shutting down.
			return nil, fmt.Errorf("dist: watch %s: server refused the subscription", addr)
		}
		return nil, fmt.Errorf("dist: watch %s: %w", addr, err)
	}
	_ = welcome // version already validated by decodeWireMessage
	conn.SetDeadline(time.Time{})

	w := &Watcher{conn: conn, done: make(chan struct{})}
	// Cancellation unblocks the read loop by closing the socket.
	w.stop = context.AfterFunc(ctx, func() { conn.Close() })

	go func() {
		defer close(w.done)
		defer w.stop()
		defer conn.Close()
		var dec decoder // deliver hands o copies, so the frames can be reused
		for {
			line, err := readFrame(br)
			if err != nil {
				w.fail(ctx, err)
				return
			}
			m, ev, err := dec.decode(line)
			if err != nil {
				w.fail(ctx, err)
				return
			}
			_ = m // control frames after the welcome are ignored
			if ev == nil {
				continue // unknown frame type or skippable newer kind
			}
			w.frames.Add(1)
			w.dropped.Store(ev.Dropped)
			ev.deliver(o)
		}
	}()
	return w, nil
}

// readWelcome reads the handshake reply: exactly one welcome frame.
func readWelcome(br *bufio.Reader) (*message, error) {
	line, err := readFrame(br)
	if err != nil {
		return nil, err
	}
	m, _, err := decodeWireMessage(line)
	if err != nil {
		return nil, err
	}
	if m == nil || m.Type != msgWelcome {
		return nil, fmt.Errorf("dist: watch handshake: server did not send a welcome")
	}
	return m, nil
}

// fail records the terminal error of the stream. A connection that
// ended because the server closed it (or the watcher was cancelled)
// is a normal end of stream, not an error — matching RunWorker.
func (w *Watcher) fail(ctx context.Context, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case ctx.Err() != nil:
		w.err = ctx.Err()
	case isClosedErr(err):
		w.err = nil
	default:
		w.err = err
	}
}

// Dropped returns the server-reported cumulative number of event
// frames this subscriber lost because it could not keep up.
func (w *Watcher) Dropped() uint64 { return w.dropped.Load() }

// Frames returns the number of event frames received so far.
func (w *Watcher) Frames() uint64 { return w.frames.Load() }

// Wait blocks until the stream ends and returns its terminal error:
// nil when the server closed the stream, ctx.Err() when the watch
// context was cancelled, and the protocol or transport failure
// otherwise.
func (w *Watcher) Wait() error {
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close tears the subscription down immediately. It never blocks on
// event delivery; the delivery goroutine exits on the closed socket.
func (w *Watcher) Close() error {
	w.stop()
	err := w.conn.Close()
	<-w.done
	if isClosedErr(err) {
		return nil
	}
	return err
}
