// Package dist is a locksend fixture modelled on the real server: a
// mutex-guarded struct, an event broadcaster, an observer interface
// and network connections.
package dist

import (
	"encoding/json"
	"net"
	"sync"
	"time"
)

// Observer mirrors observe.Observer: an external callback protocol.
type Observer interface {
	OnBatchDecided(n int)
}

// Broadcaster mirrors the event fan-out.
type Broadcaster struct{ ch chan int }

// Publish forwards one event (queueing, possibly observable latency).
func (b *Broadcaster) Publish(v int) { b.ch <- v }

// holdLock mirrors dist.Pool.Mu: a mutex whose Unlock ends the hold,
// releasing the mutex and then notifying with no lock held.
type holdLock struct {
	sync.Mutex
	s *Server
}

// Unlock overrides the embedded mutex's.
func (l *holdLock) Unlock() {
	l.Mutex.Unlock()
	l.s.obs.OnBatchDecided(0) // the mutex is released: fine
}

// Server mirrors the pool and the owner sharing its lock.
type Server struct {
	mu     sync.Mutex
	rw     sync.RWMutex
	hold   holdLock
	locker sync.Locker
	events *Broadcaster
	obs    Observer
	conn   net.Conn
	enc    *json.Encoder
	ch     chan int
	n      int
}

func (s *Server) sendUnderLock() {
	s.mu.Lock()
	s.ch <- 1 // want `sends on a channel while s\.mu is held`
	s.mu.Unlock()
	s.ch <- 2 // after unlock: fine
}

func (s *Server) sendUnderEmbeddedMutex() {
	s.hold.Lock()
	s.ch <- 1 // want `sends on a channel while s\.hold is held`
	s.hold.Unlock()
	s.ch <- 2 // after its Unlock: fine
}

func (s *Server) sendUnderLocker() {
	s.locker.Lock()
	s.ch <- 1 // want `sends on a channel while s\.locker is held`
	s.locker.Unlock()
	s.ch <- 2 // after its Unlock: fine
}

func (s *Server) earlyReturnKeepsLock(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return
	}
	s.ch <- 1 // want `sends on a channel while s\.mu is held`
	s.mu.Unlock()
}

func (s *Server) branchReleases(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
	s.ch <- 1 // both branches released: fine
}

func (s *Server) publishUnderDeferredLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.events.Publish(s.n) // want `publishes an event \(Broadcaster\.Publish\) while s\.mu is held`
}

func (s *Server) publishOutside() {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	s.events.Publish(n) // the sanctioned shape: snapshot under lock, publish outside
}

func (s *Server) observerUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.OnBatchDecided(s.n) // want `calls observer method Observer\.OnBatchDecided while s\.mu is held`
}

func (s *Server) netIOUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.Write(nil)            // want `performs network I/O \(Conn\.Write on a net\.Conn\) while s\.mu is held`
	s.enc.Encode(s.n)            // want `writes to the connection \(\(\*json\.Encoder\)\.Encode\) while s\.mu is held`
	time.Sleep(time.Millisecond) // want `sleeps \(time\.Sleep\) while s\.mu is held`
}

// notify is a helper whose blocking nature must taint callers.
func (s *Server) notify() {
	s.ch <- 1
}

func (s *Server) callsBlockingHelper() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notify() // want `calls notify, which sends on a channel while s\.mu is held`
}

// relay blocks transitively (two hops).
func (s *Server) relay() { s.notify() }

func (s *Server) callsTransitiveHelper() {
	s.mu.Lock()
	s.relay() // want `calls relay, which calls notify, which sends on a channel while s\.mu is held`
	s.mu.Unlock()
}

func (s *Server) nonBlockingSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1: // drop-and-count shape: never blocks
	default:
	}
}

func (s *Server) blockingSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1: // want `sends on a channel while s\.mu is held`
	case v := <-s.ch:
		_ = v
	}
}

func (s *Server) goroutineEscapes() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1 // its own goroutine: does not hold the lock
	}()
}

// spawnNotify starts the blocking helper on its own goroutine; the
// spawn must not taint spawnNotify's summary as blocking.
func (s *Server) spawnNotify() {
	go s.notify()
}

func (s *Server) spawnsViaHelperUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spawnNotify() // the spawned call runs off-lock: fine
}

func (s *Server) spawnsNamedUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go s.notify() // the goroutine, not this one, does the sending
}

// produce blocks; as a `go` argument it is still evaluated by the
// spawning goroutine, under whatever lock that goroutine holds.
func (s *Server) produce() int {
	s.ch <- 1
	return s.n
}

func (s *Server) consume(int) {}

func (s *Server) goArgsEvaluateUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go s.consume(s.produce()) // want `calls produce, which sends on a channel while s\.mu is held`
}

func (s *Server) deferAfterDeferredUnlock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.notify() // want `deferred after a deferred unlock, so it runs with the mutex held`
}

func (s *Server) readLockCounts() {
	s.rw.RLock()
	s.ch <- 1 // want `sends on a channel while s\.rw is held`
	s.rw.RUnlock()
}

func (s *Server) loopBalanced() {
	for i := 0; i < 3; i++ {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
	s.ch <- 1 // loop kept the pair balanced: fine
}

func (s *Server) waived() {
	s.mu.Lock()
	s.ch <- 1 //pnanalyze:ok locksend — reviewed: buffered handoff sized to capacity
	s.mu.Unlock()
}

// dispatchLocked follows the naming convention: its caller — possibly
// in another package, where this analysis cannot see the Lock — holds
// the mutex, so the body is a critical section from its first line.
func (s *Server) dispatchLocked() {
	s.n++
	s.ch <- 1 // want `sends on a channel while the caller's lock \(…Locked\) is held`
}

// dispatch has the same body under another name: no lock is assumed.
func (s *Server) dispatch() {
	s.n++
	s.ch <- 1
}

// helperLocked reaches a blocking helper: the taint crosses the call.
func (s *Server) helperLocked() {
	s.notify() // want `calls notify, which sends on a channel while the caller's lock \(…Locked\) is held`
}

// closeWedgedLocked carries the one reviewed waiver, at the operation;
// neither it nor its callers are flagged again.
func (s *Server) closeWedgedLocked() {
	s.conn.Close() //pnanalyze:ok locksend — reviewed: Close on a wedged peer does not block
}

func (s *Server) callsWaivedUnderLock() {
	s.mu.Lock()
	s.closeWedgedLocked() // the operation was waived where it happens
	s.mu.Unlock()
}
