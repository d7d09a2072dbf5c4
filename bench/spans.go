package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pnsched"
)

// recorder collects, from outside the program, what the traced run
// needs: timestamps of the public lifecycle events (stamped on the
// harness clock inside the Observer callbacks), batch decisions with
// their wall time, and the GA's per-run ledger. It stays in memory
// until the run ends. While off, every callback returns at once.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	// soloJobs: the dispatcher runs one job at a time, so a batch
	// decision (which carries no job id) belongs to the running job.
	soloJobs bool

	mu       sync.Mutex
	queued   map[string]time.Duration
	started  map[string]time.Duration
	finished map[string]time.Duration
	waited   []float64 // JobStarted.Waited, seconds
	running  string
	batches  []batchEvent
	evolves  []pnsched.EvolveDoneEvent
}

type batchEvent struct {
	start, end time.Duration
	tasks      int
	job        string // "" when the owning job is not known
}

func newRecorder(soloJobs bool) *recorder {
	return &recorder{
		epoch:    time.Now(),
		soloJobs: soloJobs,
		queued:   map[string]time.Duration{},
		started:  map[string]time.Duration{},
		finished: map[string]time.Duration{},
	}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// batch records one batch decision; the sim-* timing wrapper calls it
// directly, the live runtimes reach it through OnBatchDecided.
func (r *recorder) batch(start, end time.Duration, tasks int) {
	r.mu.Lock()
	ev := batchEvent{start: start, end: end, tasks: tasks}
	if r.soloJobs {
		ev.job = r.running
	}
	r.batches = append(r.batches, ev)
	r.mu.Unlock()
}

// observer is the harness's Observer: spans are stamped here, at the
// program's public event boundary.
func (r *recorder) observer() pnsched.Observer {
	return pnsched.ObserverFuncs{
		BatchDecided: func(e pnsched.BatchDecision) {
			// The simulator leaves Wall zero; its batches come from the
			// timing wrapper instead.
			if !r.on.Load() || e.Wall <= 0 {
				return
			}
			end := r.now()
			r.batch(end-time.Duration(float64(e.Wall)*float64(time.Second)), end, e.Tasks)
		},
		EvolveDone: func(e pnsched.EvolveDoneEvent) {
			if !r.on.Load() {
				return
			}
			r.mu.Lock()
			r.evolves = append(r.evolves, e)
			r.mu.Unlock()
		},
		JobQueued: func(e pnsched.JobQueuedEvent) {
			if !r.on.Load() {
				return
			}
			t := r.now()
			r.mu.Lock()
			r.queued[e.ID] = t
			r.mu.Unlock()
		},
		JobStarted: func(e pnsched.JobStartedEvent) {
			if !r.on.Load() {
				return
			}
			t := r.now()
			r.mu.Lock()
			r.started[e.ID] = t
			r.running = e.ID
			r.waited = append(r.waited, float64(e.Waited))
			r.mu.Unlock()
		},
		JobDone: func(e pnsched.JobDoneEvent) {
			if !r.on.Load() {
				return
			}
			t := r.now()
			r.mu.Lock()
			r.finished[e.ID] = t
			r.mu.Unlock()
		},
	}
}

// span is one traced interval. Times are microseconds on the harness
// clock; Parent is -1 for the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// buildSpans assembles the span tree of one traced phase:
//
//	phase → job → client.submit, jobs.queued, jobs.running → sched.batch   (svc-*)
//	phase → job → client.submit, sched.batch                               (serve-stream)
//	phase → run → sched.batch                                              (sim-*)
//
// A batch decision whose job is unknown (two jobs active at once)
// parents to the phase.
func buildSpans(def workloadDef, ops []opResult, rec *recorder, phaseStart, phaseEnd time.Duration) []span {
	spans := []span{{ID: 0, Parent: -1, Name: "phase", Start: us(phaseStart), End: us(phaseEnd)}}
	// A child is clipped to its parent. The program's callbacks and the
	// client's own view of the same moment are stamped on different
	// goroutines: the JobDone callback can land a few microseconds after
	// the client has already seen the job complete.
	add := func(parent int, name, job string, start, end time.Duration) int {
		id := len(spans)
		p := spans[parent]
		s := span{ID: id, Parent: parent, Name: name, Job: job,
			Start: min(max(us(start), p.Start), p.End), End: max(min(us(end), p.End), p.Start)}
		s.End = max(s.End, s.Start)
		spans = append(spans, s)
		return id
	}
	opName := "job"
	if def.kind == kindSim {
		opName = "run"
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()

	sort.Slice(ops, func(a, b int) bool { return ops[a].start.Before(ops[b].start) })
	opSpan := make([]int, len(ops))
	runningSpan := map[string]int{}
	for k, op := range ops {
		start := op.start.Sub(rec.epoch)
		id := add(0, opName, op.id, start, start+op.lat)
		opSpan[k] = id
		if def.kind == kindSim {
			continue
		}
		add(id, "client.submit", op.id, start, start+op.submit)
		q, okq := rec.queued[op.id]
		s, oks := rec.started[op.id]
		f, okf := rec.finished[op.id]
		if okq && oks {
			add(id, "jobs.queued", op.id, q, s)
		}
		if oks && okf {
			runningSpan[op.id] = add(id, "jobs.running", op.id, s, f)
		}
	}
	for _, b := range rec.batches {
		parent := 0
		if p, ok := runningSpan[b.job]; ok {
			parent = p
		} else if def.clients == 1 {
			// One caller: the op in flight when the decision ended owns it.
			k := sort.Search(len(ops), func(k int) bool { return ops[k].start.Sub(rec.epoch) > b.end }) - 1
			if k >= 0 && b.end <= ops[k].start.Sub(rec.epoch)+ops[k].lat {
				parent = opSpan[k]
			}
		}
		add(parent, "sched.batch", spans[parent].Job, b.start, b.end)
	}
	selfTimes(spans)
	return spans
}

// selfTimes fills each span's self time: its duration minus the part of
// it that its children cover (their union; children lie inside it).
func selfTimes(spans []span) {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End > s.Start {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		iv := children[spans[i].ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, end float64
		for k, c := range iv {
			if k == 0 || c[0] > end {
				covered += c[1] - c[0]
				end = c[1]
			} else if c[1] > end {
				covered += c[1] - end
				end = c[1]
			}
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
}

// selfShares returns each span name's share of all self time below the
// root, in percent. The root's own self time (the phase with no op in
// flight) is left out: it is harness idle time, not a layer.
func selfShares(spans []span) map[string]float64 {
	byName := map[string]float64{}
	var total float64
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		byName[s.Name] += s.Self
		total += s.Self
	}
	for name, v := range byName {
		byName[name] = 100 * ratio(v, total)
	}
	return byName
}
