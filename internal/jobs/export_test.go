package jobs

import (
	"bytes"
	"encoding/json"
	"time"
)

// encodeJournalRecord renders one record as its journal line, newline
// included, encoded as the journal stages it.
func encodeJournalRecord(r *JournalRecord) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(r)
	return b.Bytes(), err
}

// NewRetainingForTest is New with the retention cap and grace window
// given outright, in force from the start: recovery already trims to
// them.
func NewRetainingForTest(cfg Config, retain int, grace time.Duration) (*Dispatcher, error) {
	return newRetaining(cfg, retain, grace)
}

// MarkServedForTest records a running job's admission charge as fully
// served, so a subsequent Cancel refunds nothing. The workerless
// admission-order tests use it to walk the stride schedule as if each
// admitted job had run to completion — without it, cancelling would
// (correctly) refund the whole charge and the walk would observe the
// refund path instead of the steady-state stride order.
func (d *Dispatcher) MarkServedForTest(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if j, ok := d.jobsByID[id]; ok {
		j.ServedWork = j.Charge
	}
}

// ServedForTest reads a tenant's fair-share ledger value.
func (d *Dispatcher) ServedForTest(tenant string) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.durable.Served[tenant]
}

// ReplayForTest loads a journal directory into a fresh, journal-less
// dispatcher exactly as recovery's first half does and stops there:
// none of what a restart changes happens — no retry spend, no re-queue,
// no scheduler resolution, no admission, no snapshot. What it returns
// is what the journal says, to be compared with the live dispatcher
// that wrote it.
func ReplayForTest(cfg Config, dir string) (*Dispatcher, error) {
	cfg.JournalDir = ""
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	jr, snap, tail, err := openJournal(dir, 0)
	if err != nil {
		d.Close()
		return nil, err
	}
	jr.f.Close()
	d.mu.Lock()
	err = d.replayLocked(snap, tail)
	d.mu.Unlock()
	if err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// DurableStateForTest renders the dispatcher's durable state in
// snapshot form.
func (d *Dispatcher) DurableStateForTest() *JournalSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

// BreakJournalForTest closes the journal's file descriptor under the
// dispatcher, so the next append fails the way a yanked disk would.
func (d *Dispatcher) BreakJournalForTest() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.jour.f.Close()
}
