// Typed metrics registry: counters, gauges, and fixed-bucket histograms
// that render as Prometheus text format (promtext.go). This is the layer
// the serving stack's signals live on — /metrics and the in-process
// snapshots read the same instruments, so the views can never drift apart.
//
// Design constraints, in order:
//
//  1. Hot-path writes are wait-free: a counter is one atomic add, a
//     histogram observation is one atomic add on a lock-striped shard
//     plus a CAS loop for the float sum. No instrument takes a lock
//     after construction.
//  2. Registration is idempotent: asking for a family that already
//     exists with the same type and label names returns the existing
//     family, so any number of servers (tests build them freely) can
//     share a registry without duplicate-name panics.
//  3. Readers (the scrape path, in-process snapshots) see a consistent
//     enough view without stopping writers: per-bucket counts are summed
//     across shards at read time.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families. The zero value is not usable; construct
// with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// metricType enumerates the Prometheus family types the registry renders.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// family is one named metric family: a type, help text, label names, and
// the series keyed by their label values.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string

	mu     sync.Mutex
	series map[string]any // labelKey -> *Counter | *Gauge | *Histogram
	order  []string       // registration order of labelKeys

	buckets []float64      // histogram families only
	fn      func() float64 // gauge-func families only (single unlabeled series)
}

// lookup returns the family registered under name, creating it when
// absent. It panics when the name exists with a different type or label
// set — that is a programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, typ metricType, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		typ:    typ,
		labels: labels,
		series: make(map[string]any),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
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

// labelKey joins label values with a separator that cannot appear in a
// value boundary ambiguity (values may contain anything; \xff plus length
// framing would be overkill for metric cardinalities — a 0x00 join is the
// conventional choice and collisions require a value containing NUL
// adjacent to another value's prefix, which we accept).
func labelKey(values []string) string {
	return strings.Join(values, "\x00")
}

// seriesFor returns the family's series for the given label values,
// creating it with mk when absent.
func (f *family) seriesFor(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// ---- Counter ----

// Counter is a monotonically increasing integer. All methods are safe for
// concurrent use; Add of a negative value panics.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: Counter.Add of negative value")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers (or finds) an unlabeled counter family and returns
// its single series.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, typeCounter, nil)
	return f.seriesFor(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a counter family with the given label
// names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, typeCounter, labels)}
}

// With returns the series for the given label values, creating it on
// first use. Hot paths should resolve once and keep the *Counter.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.seriesFor(values, func() any { return &Counter{} }).(*Counter)
}

// ---- Gauge ----

// Gauge is a float64 that can go up and down. Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers (or finds) an unlabeled gauge family and returns its
// single series.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, typeGauge, nil)
	return f.seriesFor(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, typeGauge, labels)}
}

// With returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.seriesFor(values, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// for values that already live elsewhere (cache sizes, uptime, plan-cache
// counters) and would be silly to mirror on every change. Idempotent like
// every registration: the first function registered for a name wins.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, typeGauge, nil)
	f.mu.Lock()
	if f.fn == nil {
		f.fn = fn
	}
	f.mu.Unlock()
}

// ---- Histogram ----

// histStripes is the number of lock stripes per histogram. Writers pick a
// stripe by hashing the observed value, so concurrent observers of
// different latencies land on different cache lines; readers sum across
// stripes.
const histStripes = 8

// Exemplar links one histogram bucket to the request journal: the trace
// id of a recent request that landed in the bucket, with its exact value
// and wall-clock time. Rendered in OpenMetrics exposition.
type Exemplar struct {
	TraceID string
	Value   float64
	UnixNs  int64
}

// Histogram is a fixed-bucket histogram with lock-striped shards and
// per-bucket exemplars. Bounds are upper bucket bounds in ascending
// order; the +Inf bucket is implicit.
type Histogram struct {
	bounds    []float64
	stripes   [histStripes]histStripe
	exemplars []atomic.Pointer[Exemplar] // len(bounds)+1
}

type histStripe struct {
	buckets []atomic.Int64 // len(bounds)+1
	sumBits atomic.Uint64  // float64 bits of the value sum
	count   atomic.Int64
	_       [32]byte // pad stripes apart
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds:    bounds,
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
	for i := range h.stripes {
		h.stripes[i].buckets = make([]atomic.Int64, len(bounds)+1)
	}
	return h
}

// bucketFor returns the index of the first bound >= v (len(bounds) for
// the +Inf bucket). Bounds lists are short; linear scan beats binary
// search in practice and never allocates.
func (h *Histogram) bucketFor(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// stripeFor mixes the value bits into a stripe index. Identical values
// share a stripe; latency observations differ in their low bits, which is
// exactly what the multiplier spreads.
func stripeFor(v float64) int {
	x := math.Float64bits(v)
	x ^= x >> 33
	x *= 0x9e3779b97f4a7c15
	return int(x>>58) & (histStripes - 1)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	s := &h.stripes[stripeFor(v)]
	s.buckets[h.bucketFor(v)].Add(1)
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		if s.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveExemplar records one value and attaches an exemplar to its
// bucket, linking the bucket to a journal entry by trace id.
func (h *Histogram) ObserveExemplar(v float64, traceID string, unixNs int64) {
	h.Observe(v)
	h.exemplars[h.bucketFor(v)].Store(&Exemplar{TraceID: traceID, Value: v, UnixNs: unixNs})
}

// HistSnapshot is a consistent-enough read of a histogram: per-bucket
// (non-cumulative) counts aligned with Bounds, the total count, and the
// value sum.
type HistSnapshot struct {
	Bounds  []float64
	Buckets []int64
	Count   int64
	Sum     float64
}

// Snapshot sums the stripes. Concurrent writers may land between bucket
// and sum reads; the skew is bounded by in-flight observations.
func (h *Histogram) Snapshot() HistSnapshot {
	out := HistSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.bounds)+1),
	}
	for i := range h.stripes {
		s := &h.stripes[i]
		for j := range s.buckets {
			out.Buckets[j] += s.buckets[j].Load()
		}
		out.Count += s.count.Load()
		out.Sum += math.Float64frombits(s.sumBits.Load())
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.stripes {
		n += h.stripes[i].count.Load()
	}
	return n
}

// exemplarFor returns the bucket's exemplar, or nil.
func (h *Histogram) exemplarFor(bucket int) *Exemplar {
	return h.exemplars[bucket].Load()
}

// Histogram registers (or finds) an unlabeled histogram family with the
// given upper bucket bounds and returns its single series.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.lookup(name, help, typeHistogram, nil)
	f.mu.Lock()
	if f.buckets == nil {
		f.buckets = bounds
	}
	f.mu.Unlock()
	return f.seriesFor(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a labeled histogram family; every series shares the
// family's bucket bounds.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := r.lookup(name, help, typeHistogram, labels)
	f.mu.Lock()
	if f.buckets == nil {
		f.buckets = bounds
	}
	f.mu.Unlock()
	return &HistogramVec{f: f}
}

// With returns the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.seriesFor(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// familiesSorted snapshots the family list in name order for rendering.
func (r *Registry) familiesSorted() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
