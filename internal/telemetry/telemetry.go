// Package telemetry is the runtime metrics substrate of the repo: a
// zero-dependency registry of counters, gauges and fixed-bucket
// histograms rendered in the Prometheus text exposition format
// (version 0.0.4), plus the HTTP admin surface (/metrics, /healthz,
// net/http/pprof) the live server exposes through
// pnsched.WithAdminAddr / pnserver -admin.
//
// It is deliberately distinct from internal/metrics, which aggregates
// *experiment results* (makespans, efficiencies across simulation
// repeats) into tables and CSV for figure regeneration. telemetry is
// about what a live process is doing right now — tasks dispatched,
// queue depths, dispatch-latency distributions, GA generations per
// batch — scraped over HTTP by monitoring systems.
//
// Instruments are cheap (atomic loads and adds; histograms take a
// short mutex) and safe for concurrent use, so they can sit on the
// scheduling and GA hot paths. Registration is done once at startup
// and panics on programmer error (invalid names, a name reused with a
// different type), exactly like expvar.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to an instrument. Instruments
// sharing a metric name but carrying different labels form one family,
// rendered under a single HELP/TYPE header.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Sample is one rendered time-series point, used by SampleFunc
// collectors whose label sets are only known at scrape time (per-worker
// rates, per-watcher queue depths).
type Sample struct {
	Labels []Label
	Value  float64
}

// Instrument type names as they appear on the # TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Counter is a monotonically non-decreasing value. The zero value is
// usable but unregistered; obtain registered counters from
// Registry.Counter.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas are ignored — counters
// only go up.
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Histogram is a fixed-bucket distribution: cumulative bucket counts,
// a sum and a total count, rendered as the standard Prometheus
// name_bucket{le="..."} / name_sum / name_count triplet. The bucket
// layout is fixed at construction — scrapes are always comparable.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds, +Inf implicit
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// snapshot returns cumulative bucket counts (per bound, then +Inf),
// the sum and the count, consistently.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	return cum, h.sum, h.count
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and multiplying by factor — the layout used for latency
// histograms. It panics on a non-positive start, a factor <= 1, or
// n < 1 (bucket layouts are compile-time decisions).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: invalid exponential bucket layout")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// series is one registered instrument inside a family.
type series struct {
	labels []Label
	read   func() float64
}

// family is all instruments sharing one metric name.
type family struct {
	name, help, typ string
	series          []series
	hists           []struct {
		labels []Label
		h      *Histogram
	}
	sample func() []Sample // dynamic families (SampleFunc)
}

// Registry holds registered instruments and renders them. The zero
// value is not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// lookup returns the family for name, creating it with the given type
// and help on first use. It panics when the name is invalid or already
// registered with a different type — both programmer errors.
func (r *Registry) lookup(name, typ, help string) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func validateLabels(labels []Label) {
	for _, l := range labels {
		if !nameRe.MatchString(l.Name) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l.Name))
		}
	}
}

func sameLabels(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns the existing) counter under name with
// the given labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	validateLabels(labels)
	c := &Counter{}
	r.register(name, typeCounter, help, labels, c.Value)
	return c
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// queue depths, pool sizes, anything already tracked elsewhere.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	validateLabels(labels)
	r.register(name, typeGauge, help, labels, fn)
}

// CounterFunc registers a counter whose value is computed at scrape
// time — a lifetime total the program already keeps.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, typeCounter, help, nil, fn)
}

// register adds one series to a family, replacing a series with the
// identical label set (so re-registration is idempotent).
func (r *Registry) register(name, typ, help string, labels []Label, read func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, typ, help)
	for i := range f.series {
		if sameLabels(f.series[i].labels, labels) {
			f.series[i].read = read
			return
		}
	}
	f.series = append(f.series, series{labels: labels, read: read})
}

// SampleFunc registers a dynamic family: fn is called at scrape time
// and every returned sample is rendered under name. gauge selects the
// TYPE line (false renders a counter family). Use it when the label
// set is only known at scrape time — one sample per connected worker,
// per attached watcher.
func (r *Registry) SampleFunc(name, help string, gauge bool, fn func() []Sample) {
	typ := typeCounter
	if gauge {
		typ = typeGauge
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, typ, help)
	f.sample = fn
}

// Histogram registers a histogram with the given fixed bucket bounds
// (sorted ascending; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	validateLabels(labels)
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q bucket bounds not sorted", name))
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, typeHistogram, help)
	for i := range f.hists {
		if sameLabels(f.hists[i].labels, labels) {
			f.hists[i].h = h
			return h
		}
	}
	f.hists = append(f.hists, struct {
		labels []Label
		h      *Histogram
	}{labels, h})
	return h
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), families in registration
// order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			writeSample(&b, f.name, s.labels, "", s.read())
		}
		if f.sample != nil {
			for _, s := range f.sample() {
				writeSample(&b, f.name, s.Labels, "", s.Value)
			}
		}
		for _, hs := range f.hists {
			cum, sum, count := hs.h.snapshot()
			for i, bound := range hs.h.bounds {
				le := L("le", formatFloat(bound))
				writeSample(&b, f.name+"_bucket", append(append([]Label(nil), hs.labels...), le), "", float64(cum[i]))
			}
			inf := L("le", "+Inf")
			writeSample(&b, f.name+"_bucket", append(append([]Label(nil), hs.labels...), inf), "", float64(cum[len(cum)-1]))
			writeSample(&b, f.name+"_sum", hs.labels, "", sum)
			writeSample(&b, f.name+"_count", hs.labels, "", float64(count))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name string, labels []Label, suffix string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s=%q", l.Name, escapeValue(l.Value))
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeValue escapes a label value per the exposition format; %q in
// writeSample adds the quotes and escapes " and \ already, so only
// newlines need normalising before quoting.
func escapeValue(s string) string {
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns the /metrics endpoint: every scrape renders the
// current registry state.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WritePrometheus(w)
	})
}
