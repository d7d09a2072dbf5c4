package pnsched

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"pnsched/internal/rng"
	"pnsched/internal/sched"
)

// Factory constructs one scheduler instance from a validated Spec and
// the random stream the instance should draw from. Stateless
// heuristics ignore r; GA schedulers must take all their randomness
// from it so identically seeded specs build identically behaving
// schedulers.
type Factory func(spec Spec, r *RNG) (Scheduler, error)

var registry = struct {
	sync.RWMutex
	factories map[string]Factory
	info      map[string]Info
	order     []string // canonical names, registration order
}{factories: map[string]Factory{}, info: map[string]Info{}}

// Info is a registered scheduler's descriptive metadata, surfaced in
// help output (pnsim/pnserver -schedulers), documentation, and the
// Describe/Infos API. The zero metadata (everything false, empty
// Summary) is what plain Register records.
type Info struct {
	// Name is the canonical registry name.
	Name string
	// Batch reports batch-mode scheduling: the scheduler maps whole
	// batches of tasks at once (and is usable with Serve). Immediate
	// schedulers assign one task at a time, FCFS, and run only under
	// the simulator.
	Batch bool
	// GA reports a genetic-algorithm-based scheduler (ZO, PN,
	// PN-ISLAND); the others are O(n·M) heuristics.
	GA bool
	// Summary is a one-line description for listings.
	Summary string
}

// canonicalName normalizes a scheduler name for registry lookup:
// names are case-insensitive ("pn-island" and "PN-ISLAND" are the same
// scheduler) and surrounding whitespace is ignored.
func canonicalName(name string) string {
	return strings.ToUpper(strings.TrimSpace(name))
}

// Register adds a scheduler factory under a (case-insensitive) name.
// It panics on an empty name, a nil factory, or a duplicate
// registration — registration happens in init functions, where a
// conflict is a programming error. The built-in schedulers (the
// paper's seven plus PN-ISLAND and the Maheswaran et al. heuristics)
// self-register; external packages can add their own and have them
// reachable from every construction surface in the repo (pnsim
// -sched, scenario files, experiments). Spec.Batch caps a batch
// scheduler that does not size its own batches (see SizerFor).
func Register(name string, f Factory) {
	RegisterInfo(Info{Name: name}, f)
}

// RegisterInfo is Register carrying descriptive metadata alongside the
// factory: mode (batch/immediate), GA or heuristic, and a one-line
// summary, all surfaced by Describe, Infos and the CLI -schedulers
// listings. The same name rules and panics as Register apply.
func RegisterInfo(info Info, f Factory) {
	c := canonicalName(info.Name)
	if c == "" {
		panic("pnsched: Register with empty scheduler name")
	}
	if f == nil {
		panic(fmt.Sprintf("pnsched: Register(%q) with nil factory", info.Name))
	}
	info.Name = c
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[c]; dup {
		panic(fmt.Sprintf("pnsched: scheduler %q already registered", c))
	}
	registry.factories[c] = f
	registry.info[c] = info
	registry.order = append(registry.order, c)
}

// Describe returns the named scheduler's metadata, reporting whether
// it is registered. Name resolution is case-insensitive, like every
// registry lookup.
func Describe(name string) (Info, bool) {
	c := canonicalName(name)
	registry.RLock()
	defer registry.RUnlock()
	info, ok := registry.info[c]
	return info, ok
}

// Infos returns every registered scheduler's metadata in registration
// order — the same order as Names.
func Infos() []Info {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Info, len(registry.order))
	for i, c := range registry.order {
		out[i] = registry.info[c]
	}
	return out
}

// WriteSchedulerTable renders the registry with its metadata — what
// pnsim -schedulers and pnserver -schedulers print, and the table the
// README documents.
func WriteSchedulerTable(w io.Writer) {
	fmt.Fprintf(w, "%-10s %-10s %-10s %s\n", "NAME", "MODE", "KIND", "SUMMARY")
	for _, info := range Infos() {
		mode, kind := "immediate", "heuristic"
		if info.Batch {
			mode = "batch"
		}
		if info.GA {
			kind = "GA"
		}
		fmt.Fprintf(w, "%-10s %-10s %-10s %s\n", info.Name, mode, kind, info.Summary)
	}
	fmt.Fprintln(w, "\nbatch-mode schedulers work with both pnsim and pnserver; immediate-mode only with pnsim.")
}

// Names returns every registered scheduler's canonical name in
// registration order — the built-ins first, in the paper's
// presentation order, then anything registered afterwards.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return append([]string(nil), registry.order...)
}

// SortedNames returns the canonical names sorted alphabetically — for
// stable user-facing listings.
func SortedNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}

// Canonical resolves a name to its canonical registry form, reporting
// whether a scheduler is registered under it.
func Canonical(name string) (string, bool) {
	c := canonicalName(name)
	registry.RLock()
	defer registry.RUnlock()
	_, ok := registry.factories[c]
	return c, ok
}

// New validates the spec and constructs the named scheduler. The
// instance draws its randomness from the stream attached with WithRNG,
// or from NewRNG(spec.Seed) when none was attached, and is wrapped in
// SizerFor's sizer if it has one. Unknown names produce an error
// listing every registered scheduler.
func New(spec Spec) (Scheduler, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := canonicalName(spec.Name)
	registry.RLock()
	f := registry.factories[c]
	registry.RUnlock()
	r := spec.rng
	if r == nil {
		r = rng.New(spec.Seed)
	}
	s, err := f(spec, r)
	if sized, ok := SizerFor(s, spec).(Scheduler); err == nil && ok {
		s = sized
	}
	return s, err
}

// MustNew is New panicking on error — for tests and examples where
// the spec is known-valid.
func MustNew(spec Spec) Scheduler {
	s, err := New(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// SizerFor returns the batch sizer a runtime should drive the
// scheduler with: nil when the scheduler sizes its own batches or is
// immediate-mode, and a fixed cap of spec.Batch (default
// sched.DefaultBatchSize, the paper's 200) for a batch scheduler with
// no sizing of its own. New applies it to what every factory returns,
// so Spec.Batch caps every registered batch scheduler that does not
// size its own batches (MM, MX, SUF) under Run, Serve and ServeJobs.
func SizerFor(s Scheduler, spec Spec) BatchSizer {
	if _, own := s.(BatchSizer); own {
		return nil
	}
	b, ok := s.(BatchScheduler)
	if !ok {
		return nil
	}
	size := spec.Batch
	if size <= 0 {
		size = sched.DefaultBatchSize
	}
	return sched.FixedBatch{Batch: b, Size: size}
}
