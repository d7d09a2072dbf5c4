package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs processed.")
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // ignored: counters only go up
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	depth := 7.0
	r.GaugeFunc("depth", "Queue depth.", func() float64 { return depth })
	depth -= 2
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\ndepth 5\n") {
		t.Fatalf("gauge not read at scrape time:\n%s", b.String())
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := &Counter{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	cum, sum, count := h.snapshot()
	// Bounds are inclusive: 0.1 lands in the le="0.1" bucket.
	want := []uint64{2, 3, 4, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], want[i], cum)
		}
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if math.Abs(sum-55.65) > 1e-9 {
		t.Fatalf("sum = %v, want 55.65", sum)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestRegistryPanicsOnTypeConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on re-registering a counter as a gauge")
		}
	}()
	r.GaugeFunc("x_total", "", func() float64 { return 0 })
}

func TestRegistryPanicsOnBadName(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid metric name")
		}
	}()
	r.Counter("bad-name", "")
}

// renderAll builds a registry exercising every instrument kind and
// returns its exposition output.
func renderAll(t *testing.T) string {
	t.Helper()
	r := NewRegistry()
	c := r.Counter("pn_tasks_total", "Tasks handled.", L("state", "done"))
	c.Add(42)
	r.Counter("pn_tasks_total", "Tasks handled.", L("state", "reissued")).Inc()
	r.GaugeFunc("pn_pending", "Pending tasks.", func() float64 { return 3 })
	r.GaugeFunc("pn_workers", "Connected workers.", func() float64 { return 2 })
	h := r.Histogram("pn_dispatch_latency_seconds", "Dispatch latency.", ExpBuckets(0.001, 10, 3))
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)
	r.SampleFunc("pn_worker_rate", "Believed worker rate.", true, func() []Sample {
		return []Sample{
			{Labels: []Label{L("worker", `w"1\x`)}, Value: 1.5},
			{Labels: []Label{L("worker", "w2")}, Value: 2.5},
		}
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// parseExposition is a strict parser for the Prometheus text
// exposition format (version 0.0.4) covering the subset the registry
// emits. It returns sample name → labelset → value, and fails the test
// on any malformed line, unknown TYPE, sample without a preceding TYPE
// header, or duplicate series.
func parseExposition(t *testing.T, text string) map[string]map[string]float64 {
	t.Helper()
	metricName := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelRe := regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)

	typeOf := map[string]string{} // family name -> counter|gauge|histogram
	out := map[string]map[string]float64{}
	// family that owns a sample name: strip histogram suffixes.
	familyOf := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typeOf[base] == "histogram" {
				return base
			}
		}
		return name
	}

	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) < 1 || !metricName.MatchString(parts[0]) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !metricName.MatchString(parts[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, parts[1])
			}
			if _, dup := typeOf[parts[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, parts[0])
			}
			typeOf[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		name, labels, valStr := m[1], m[3], m[4]
		if _, ok := typeOf[familyOf(name)]; !ok {
			t.Fatalf("line %d: sample %q has no preceding TYPE header", ln+1, name)
		}
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				if !labelRe.MatchString(pair) {
					t.Fatalf("line %d: malformed label pair %q", ln+1, pair)
				}
			}
		}
		var val float64
		switch valStr {
		case "+Inf":
			val = math.Inf(1)
		case "-Inf":
			val = math.Inf(-1)
		case "NaN":
			val = math.NaN()
		default:
			var err error
			val, err = strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
			}
		}
		if out[name] == nil {
			out[name] = map[string]float64{}
		}
		if _, dup := out[name][labels]; dup {
			t.Fatalf("line %d: duplicate series %s{%s}", ln+1, name, labels)
		}
		out[name][labels] = val
	}
	return out
}

// splitLabels splits a label body on commas not inside quoted values.
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
		case r == '\\' && inQuote:
			escaped = true
		case r == '"':
			inQuote = !inQuote
		case r == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteRune(r)
	}
	out = append(out, cur.String())
	return out
}

// TestExpositionFormatParses is the parser-level acceptance test: the
// full rendered output must survive a strict format parse, and the
// parsed values must match what the instruments recorded.
func TestExpositionFormatParses(t *testing.T) {
	text := renderAll(t)
	parsed := parseExposition(t, text)

	if got := parsed["pn_tasks_total"][`state="done"`]; got != 42 {
		t.Fatalf(`pn_tasks_total{state="done"} = %v, want 42`, got)
	}
	if got := parsed["pn_pending"][""]; got != 3 {
		t.Fatalf("pn_pending = %v, want 3", got)
	}
	if got := parsed["pn_workers"][""]; got != 2 {
		t.Fatalf("pn_workers = %v, want 2", got)
	}
	// Histogram invariants: cumulative buckets, +Inf == count.
	buckets := parsed["pn_dispatch_latency_seconds_bucket"]
	if len(buckets) != 4 {
		t.Fatalf("bucket series = %d, want 4 (%v)", len(buckets), buckets)
	}
	if got := buckets[`le="0.001"`]; got != 1 {
		t.Fatalf("le=0.001 bucket = %v, want 1", got)
	}
	if got := buckets[`le="0.1"`]; got != 2 {
		t.Fatalf("le=0.1 bucket = %v, want 2", got)
	}
	inf := buckets[`le="+Inf"`]
	count := parsed["pn_dispatch_latency_seconds_count"][""]
	if inf != count || count != 3 {
		t.Fatalf("+Inf bucket %v must equal count %v (= 3)", inf, count)
	}
	prev := -1.0
	for _, le := range []string{`le="0.001"`, `le="0.01"`, `le="0.1"`, `le="+Inf"`} {
		if buckets[le] < prev {
			t.Fatalf("buckets not cumulative at %s: %v", le, buckets)
		}
		prev = buckets[le]
	}
	// Dynamic samples with an escaped label value.
	if len(parsed["pn_worker_rate"]) != 2 {
		t.Fatalf("pn_worker_rate series = %v, want 2", parsed["pn_worker_rate"])
	}
	found := false
	for labels, v := range parsed["pn_worker_rate"] {
		if strings.Contains(labels, `\"`) && v == 1.5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped label value sample missing: %v", parsed["pn_worker_rate"])
	}
}

func TestRegistrationOrderStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "")
	r.Counter("a_total", "")
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Index(text, "b_total") > strings.Index(text, "a_total") {
		t.Fatalf("families not in registration order:\n%s", text)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1, "1"}, {0.5, "0.5"}, {math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"},
	}
	for _, c := range cases {
		if got := formatFloat(c.in); got != c.want {
			t.Fatalf("formatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Fatalf("formatFloat(NaN) = %q", got)
	}
}

func TestNilInstrumentsSafe(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Inc()
	c.Add(1)
	h.Observe(1)
	if c.Value() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := &Counter{}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	_ = fmt.Sprint(c.Value())
}
