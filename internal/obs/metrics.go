// Package obs is the telemetry layer under every drmap process: a
// labeled metrics registry rendered in Prometheus text exposition
// format, trace-ID generation and context/header propagation, slog
// construction for the -log-level/-log-format flags, opt-in pprof
// mounting, and build identification via debug/buildinfo.
//
// Every series is registered with its kind and help text where it is
// defined. Counters, gauges and fixed-bucket histograms, each
// optionally labeled, are created once and updated on the hot path
// with atomics; Func series read a value that lives in a stats struct
// (cache counters, membership size, the Go runtime) at scrape time. One
// exposition writer emits # HELP/# TYPE metadata, escapes label values,
// and sorts families and label sets so the output is deterministic and
// parseable by any standard Prometheus scraper (and by this package's
// own strict ParseExposition).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric kinds, as rendered on # TYPE lines.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Label is one name/value pair of a labeled series.
type Label struct {
	Key   string
	Value string
}

// sample is one rendered series value.
type sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// DurationBuckets are the default histogram bounds for request/phase
// durations in seconds: half a millisecond to ten seconds, roughly
// logarithmic, matching the spread between a warm reprice (~ms) and a
// cold multi-network DSE (~seconds).
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefaultMaxChildren bounds a capped vec (see Vec cap semantics on
// CounterVec): trace-labeled series keep only the most recent IDs so
// tracing cannot grow the exposition without bound.
const DefaultMaxChildren = 64

// Registry owns a process's metric families. It is safe for concurrent
// use; instrument lookups on the hot path are lock-free after creation
// (callers hold the returned Counter/Gauge/Histogram).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named instrument family and its children (one per
// label-value combination).
type family struct {
	name     string
	kind     string
	help     string
	labels   []string
	buckets  []float64 // histograms only
	maxKids  int       // 0 = unbounded
	mu       sync.Mutex
	children map[string]labeledChild
	kidOrder []string // insertion order, for capped eviction
}

type child interface {
	samples(name string, labels []Label) []sample
}

// labeledChild is one child with its label set.
type labeledChild struct {
	child
	labels []Label
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the named family, creating it on first use; re-lookup
// with the same name returns the existing family (so two components
// can share one instrument), and a kind or label-arity mismatch
// panics - it is a programming error, not a runtime condition.
func (r *Registry) lookup(name, kind, help string, labels []string, buckets []float64, maxKids int) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name: name, kind: kind, help: help,
		labels: labels, buckets: buckets, maxKids: maxKids,
		children: make(map[string]labeledChild),
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) a counter family with the given label
// names. Use With(values...) for a child to Inc/Add.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, KindCounter, help, labels, nil, 0)}
}

// CappedCounter is Counter with a bounded child set: past max children
// (<= 0 means DefaultMaxChildren) the oldest label combination is
// evicted. For high-cardinality labels like trace IDs, where "the last
// N" is exactly the observability wanted.
func (r *Registry) CappedCounter(name, help string, max int, labels ...string) *CounterVec {
	if max <= 0 {
		max = DefaultMaxChildren
	}
	return &CounterVec{f: r.lookup(name, KindCounter, help, labels, nil, max)}
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, KindGauge, help, labels, nil, 0)}
}

// Histogram registers (or returns) a fixed-bucket histogram family.
// buckets are upper bounds in increasing order, without +Inf (added
// implicitly); nil means DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DurationBuckets
	}
	return &HistogramVec{f: r.lookup(name, KindHistogram, help, labels, buckets, 0)}
}

// Func registers one counter or gauge series (kind KindCounter or
// KindGauge) whose value is read from value at every scrape: the
// registration for counts whose source of truth is a stats struct
// rather than an instrument. Calls with the same name and different
// label values add series to one family; registering the same series
// again keeps the first value function.
func (r *Registry) Func(name, kind, help string, value func() float64, labels ...Label) {
	keys := make([]string, len(labels))
	values := make([]string, len(labels))
	for i, l := range labels {
		keys[i], values[i] = l.Key, l.Value
	}
	r.lookup(name, kind, help, keys, nil, 0).childFor(values, func() child { return funcSeries(value) })
}

// funcSeries is one Func-registered series.
type funcSeries func() float64

func (s funcSeries) samples(name string, labels []Label) []sample {
	return []sample{{Name: name, Labels: labels, Value: s()}}
}

// childFor returns the family's child for the given label values,
// creating (and, for capped families, evicting) as needed.
func (f *family) childFor(values []string, build func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.child
	}
	c := labeledChild{child: build()}
	for i, name := range f.labels {
		c.labels = append(c.labels, Label{Key: name, Value: values[i]})
	}
	f.children[key] = c
	f.kidOrder = append(f.kidOrder, key)
	if f.maxKids > 0 && len(f.kidOrder) > f.maxKids {
		evict := f.kidOrder[0]
		f.kidOrder = f.kidOrder[1:]
		delete(f.children, evict)
	}
	return c.child
}

// childKey encodes label values into a map key that no two distinct
// value lists share, whatever bytes the values hold.
func childKey(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 4 // length digits, ':' and the value
	}
	var b strings.Builder
	b.Grow(n)
	for _, v := range values {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

// --- counter ---------------------------------------------------------

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// Counter is one monotonically increasing series.
type Counter struct{ v atomic.Int64 }

func (c *Counter) samples(name string, labels []Label) []sample {
	return []sample{{Name: name, Labels: labels, Value: float64(c.v.Load())}}
}

// With returns the child for the given label values (in the family's
// label-name order).
func (cv *CounterVec) With(values ...string) *Counter {
	return cv.f.childFor(values, func() child { return &Counter{} }).(*Counter)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// --- gauge -----------------------------------------------------------

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// Gauge is one series that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

func (g *Gauge) samples(name string, labels []Label) []sample {
	return []sample{{Name: name, Labels: labels, Value: g.Value()}}
}

// With returns the child for the given label values.
func (gv *GaugeVec) With(values ...string) *Gauge {
	return gv.f.childFor(values, func() child { return &Gauge{} }).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		want := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, want) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// --- histogram -------------------------------------------------------

// HistogramVec is a labeled fixed-bucket histogram family.
type HistogramVec struct{ f *family }

// Histogram is one series of bucketed observations.
type Histogram struct {
	bounds []float64      // upper bounds, ascending, excluding +Inf
	counts []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// With returns the child for the given label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	bounds := hv.f.buckets
	return hv.f.childFor(values, func() child {
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}).(*Histogram)
}

// Observe records one value into its bucket.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		want := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, want) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCounts returns the cumulative per-bucket counts, one per bound
// plus the +Inf bucket (which equals Count).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

func (h *Histogram) samples(name string, labels []Label) []sample {
	cum := h.BucketCounts()
	out := make([]sample, 0, len(cum)+2)
	for i, bound := range h.bounds {
		out = append(out, sample{
			Name:   name + "_bucket",
			Labels: append(append([]Label{}, labels...), Label{Key: "le", Value: formatFloat(bound)}),
			Value:  float64(cum[i]),
		})
	}
	out = append(out, sample{
		Name:   name + "_bucket",
		Labels: append(append([]Label{}, labels...), Label{Key: "le", Value: "+Inf"}),
		Value:  float64(cum[len(cum)-1]),
	})
	out = append(out,
		sample{Name: name + "_sum", Labels: labels, Value: h.Sum()},
		sample{Name: name + "_count", Labels: labels, Value: float64(h.Count())},
	)
	return out
}

// --- exposition ------------------------------------------------------

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4): one # HELP and # TYPE line per
// family, then its samples with label sets escaped and key-sorted,
// families sorted by name. A family renders even with no series yet.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		var lines []string
		for _, s := range f.samples() {
			lines = append(lines, sampleLine(s))
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// samples renders every child's series. The children are snapshotted
// under the family lock and read outside it, so a Func value may take
// its own locks.
func (f *family) samples() []sample {
	f.mu.Lock()
	kids := make([]labeledChild, len(f.kidOrder))
	for i, k := range f.kidOrder {
		kids[i] = f.children[k]
	}
	f.mu.Unlock()
	var out []sample
	for _, c := range kids {
		out = append(out, c.samples(f.name, c.labels)...)
	}
	return out
}

// Expose renders WritePrometheus to a string.
func (r *Registry) Expose() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}

// sampleLine renders one sample: name{k1="v1",k2="v2"} value, label
// keys sorted, values escaped.
func sampleLine(s sample) string {
	var b strings.Builder
	b.WriteString(s.Name)
	if len(s.Labels) > 0 {
		labels := append([]Label{}, s.Labels...)
		sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(s.Value))
	return b.String()
}

// formatFloat renders a sample value: integral values as plain
// integers (lifetime counters must render as `name 1000000`, not
// `name 1e+06`), everything else in shortest-roundtrip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
