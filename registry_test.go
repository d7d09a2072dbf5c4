package pnsched

import (
	"strings"
	"testing"

	"pnsched/internal/sched"
)

func TestNamesContainsAllBuiltins(t *testing.T) {
	names := Names()
	want := []string{"EF", "LL", "RR", "ZO", "PN", "MM", "MX", "PN-ISLAND", "MET", "OLB", "KPB", "SUF"}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("registry missing built-in %s (have %v)", n, names)
		}
	}
	// The paper's seven lead the listing in presentation order.
	for i, n := range PaperOrder {
		if j := indexOf(names, n); j < 0 || (i > 0 && j < indexOf(names, PaperOrder[i-1])) {
			t.Errorf("paper scheduler %s out of order in %v", n, names)
		}
	}
}

func indexOf(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}

func TestNewIsCaseInsensitive(t *testing.T) {
	for _, name := range []string{"pn", "Pn", "PN", " pn ", "pn-island", "PN-ISLAND", "ef", "suf"} {
		s, err := New(Spec{Name: name})
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if s == nil {
			t.Errorf("New(%q) returned nil scheduler", name)
		}
	}
}

func TestNewUnknownListsRegistry(t *testing.T) {
	_, err := New(Spec{Name: "definitely-not-a-scheduler"})
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	for _, want := range []string{"definitely-not-a-scheduler", "PN", "EF", "PN-ISLAND"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestRegisterExternalScheduler(t *testing.T) {
	Register("test-external", func(Spec, *RNG) (Scheduler, error) { return sched.EF{}, nil })
	if _, ok := Canonical("Test-External"); !ok {
		t.Fatal("externally registered scheduler not resolvable")
	}
	if _, err := New(Spec{Name: "test-external"}); err != nil {
		t.Fatalf("constructing external scheduler: %v", err)
	}
	if indexOf(Names(), "TEST-EXTERNAL") < 0 {
		t.Error("external scheduler missing from Names()")
	}
}

func TestDescribeMetadata(t *testing.T) {
	// The twelve built-ins split into immediate and batch mode exactly
	// as Serve's validation expects, and the GA flag marks the three
	// GA-based schedulers.
	batch := map[string]bool{"ZO": true, "PN": true, "MM": true, "MX": true, "PN-ISLAND": true, "SUF": true}
	ga := map[string]bool{"ZO": true, "PN": true, "PN-ISLAND": true}
	for _, name := range []string{"EF", "LL", "RR", "ZO", "PN", "MM", "MX", "PN-ISLAND", "MET", "OLB", "KPB", "SUF"} {
		info, ok := Describe(name)
		if !ok {
			t.Errorf("Describe(%q) not found", name)
			continue
		}
		if info.Name != name {
			t.Errorf("Describe(%q).Name = %q", name, info.Name)
		}
		if info.Batch != batch[name] {
			t.Errorf("Describe(%q).Batch = %v, want %v", name, info.Batch, batch[name])
		}
		if info.GA != ga[name] {
			t.Errorf("Describe(%q).GA = %v, want %v", name, info.GA, ga[name])
		}
		if info.Summary == "" {
			t.Errorf("Describe(%q) has no summary", name)
		}
	}
	// Case-insensitive like every registry lookup.
	if info, ok := Describe(" pn-island "); !ok || info.Name != "PN-ISLAND" {
		t.Errorf("Describe is not canonicalising: %+v, %v", info, ok)
	}
	if _, ok := Describe("no-such"); ok {
		t.Error("Describe invented metadata for an unregistered name")
	}
}

func TestInfosMatchesNames(t *testing.T) {
	names, infos := Names(), Infos()
	if len(names) != len(infos) {
		t.Fatalf("Names() has %d entries, Infos() %d", len(names), len(infos))
	}
	for i := range names {
		if infos[i].Name != names[i] {
			t.Errorf("Infos()[%d].Name = %q, want %q (same order as Names)", i, infos[i].Name, names[i])
		}
	}
	// Plain Register (no metadata) still yields a well-formed Info.
	Register("test-bare-info", func(Spec, *RNG) (Scheduler, error) { return sched.EF{}, nil })
	info, ok := Describe("test-bare-info")
	if !ok || info.Name != "TEST-BARE-INFO" || info.Batch || info.GA || info.Summary != "" {
		t.Errorf("bare Register metadata = %+v, %v; want canonical name and zero flags", info, ok)
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	mustPanic(t, "duplicate", func() {
		Register("pn", func(Spec, *RNG) (Scheduler, error) { return sched.EF{}, nil })
	})
	mustPanic(t, "empty name", func() {
		Register("  ", func(Spec, *RNG) (Scheduler, error) { return sched.EF{}, nil })
	})
	mustPanic(t, "nil factory", func() { Register("x-nil", nil) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

func TestSizerFor(t *testing.T) {
	// GA schedulers size their own batches: no external sizer.
	pn := MustNew(Spec{Name: "PN"})
	if s := SizerFor(pn, Spec{Name: "PN"}); s != nil {
		t.Errorf("PN got external sizer %T", s)
	}
	// So do the built-in batch heuristics, pinned to the spec's batch
	// cap — a runtime handed only the scheduler (Serve, ServeJobs)
	// honours Spec.Batch without consulting SizerFor.
	for _, name := range []string{"MM", "MX", "SUF"} {
		spec := Spec{Name: name, Batch: 64}
		s := MustNew(spec)
		if got := s.(BatchSizer).NextBatchSize(1000, nil); got != 64 {
			t.Errorf("%s with Batch 64 sized a batch of %d", name, got)
		}
		if ext := SizerFor(s, spec); ext != nil {
			t.Errorf("%s got external sizer %T", name, ext)
		}
	}
	// ... defaulting to the paper's 200.
	if got := MustNew(Spec{Name: "MM"}).(BatchSizer).NextBatchSize(1000, nil); got != sched.DefaultBatchSize {
		t.Errorf("default cap = %d, want %d", got, sched.DefaultBatchSize)
	}
	// A Registered batch scheduler with no sizing of its own still gets
	// the spec's cap from SizerFor.
	bare := SizerFor(sched.MM{}, Spec{Name: "x-bare", Batch: 64})
	if fb, ok := bare.(sched.FixedBatch); !ok || fb.Size != 64 {
		t.Errorf("bare batch scheduler sizer = %#v, want FixedBatch{Size: 64}", bare)
	}
	if fb := SizerFor(sched.MM{}, Spec{Name: "x-bare"}).(sched.FixedBatch); fb.Size != sched.DefaultBatchSize {
		t.Errorf("default cap = %d, want %d", fb.Size, sched.DefaultBatchSize)
	}
	// Immediate schedulers need no sizer at all.
	if s := SizerFor(MustNew(Spec{Name: "EF"}), Spec{Name: "EF"}); s != nil {
		t.Errorf("EF got sizer %T", s)
	}
}

func TestNewSeedAndRNGEquivalence(t *testing.T) {
	// WithSeed(s) and WithRNG(NewRNG(s)) build identically-behaving
	// schedulers; WithRNG wins when both are set.
	a := MustNew(MustSpec("PN", WithSeed(99), WithGenerations(40)))
	b := MustNew(MustSpec("PN", WithRNG(NewRNG(99)), WithGenerations(40)))
	w, err := GenerateWorkload(WorkloadConfig{Tasks: 120, Procs: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ra := runDirect(t, a, w)
	rb := runDirect(t, b, w)
	if ra.Makespan != rb.Makespan || ra.Efficiency != rb.Efficiency {
		t.Errorf("seed/RNG construction diverged: %v vs %v", ra.Makespan, rb.Makespan)
	}
}
