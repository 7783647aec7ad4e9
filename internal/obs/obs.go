// Package obs is the repo's dependency-free observability core: a
// metrics registry (counters, gauges, histograms — all with atomic hot
// paths) that renders the Prometheus text exposition format, and a
// lightweight span/tracing API that records per-run lifecycles into a
// bounded in-memory buffer exportable as a JSON span tree.
//
// The package is built for out-of-band instrumentation of deterministic
// code: nothing here touches an RNG, and every instrument handle is
// nil-safe — a package holds *Counter/*Gauge/*Histogram/*Span fields
// unconditionally and calls Inc/Set/Observe/End on them, and when no
// registry (or trace) is wired in the handles are nil and the calls are
// single-branch no-ops. Enabling metrics can therefore change
// performance, never results; the byte-identical-Result tests in
// pkg/ones pin that.
//
// Metric naming follows Prometheus conventions: `<subsystem>_<noun>_
// <unit>` with `_total` counters (engine_cells_completed_total,
// servecache_hits_total, http_request_seconds). See DESIGN.md
// ("Observability") for the full catalog.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metric kinds, in TYPE-line spelling.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Registry holds metric families by name and renders them as Prometheus
// text. All methods are safe for concurrent use; instrument handles
// returned by the getters are get-or-create, so independent packages (or
// repeated Session constructions over one registry) share one underlying
// series per (name, labels) pair instead of fighting over registration.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one metric name: metadata plus the children (one per label
// combination; exactly one unlabeled child for plain instruments).
type family struct {
	name       string
	help       string
	kind       string
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child // key: label values joined by \xff
}

// child is one series: a concrete instrument or a gauge callback.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fn          atomic.Pointer[func() float64] // GaugeFunc children
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns (creating if needed) the family for name, checking
// that kind and label names match any prior registration — a mismatch is
// a programming error and panics.
func (r *Registry) familyFor(name, help, kind string, labelNames []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:       name,
			help:       help,
			kind:       kind,
			labelNames: append([]string(nil), labelNames...),
			buckets:    append([]float64(nil), buckets...),
			children:   make(map[string]*child),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	if len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("obs: metric %q re-registered with labels %v (was %v)", name, labelNames, f.labelNames))
	}
	for i, n := range labelNames {
		if f.labelNames[i] != n {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v (was %v)", name, labelNames, f.labelNames))
		}
	}
	return f
}

// childKey joins label values into a map key. \xff cannot appear in
// valid UTF-8 label values, so the join is unambiguous.
func childKey(values []string) string { return strings.Join(values, "\xff") }

// childFor returns (creating if needed) the series for the given label
// values.
func (f *family) childFor(values []string) *child {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q: %d label values for %d label names", f.name, len(values), len(f.labelNames)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			c.counter = &Counter{}
		case kindGauge:
			c.gauge = &Gauge{}
		case kindHistogram:
			c.hist = newHistogram(f.buckets)
		}
		f.children[key] = c
	}
	return c
}

// Counter returns the unlabeled counter registered under name,
// creating it on first use. Safe on a nil Registry (returns nil; all
// Counter methods are nil-safe no-ops).
func (r *Registry) Counter(name, help string) *Counter {
	f := r.familyFor(name, help, kindCounter, nil, nil)
	if f == nil {
		return nil
	}
	return f.childFor(nil).counter
}

// Gauge returns the unlabeled gauge registered under name, creating it
// on first use. Safe on a nil Registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.familyFor(name, help, kindGauge, nil, nil)
	if f == nil {
		return nil
	}
	return f.childFor(nil).gauge
}

// Histogram returns the unlabeled histogram registered under name with
// the given upper bounds (nil ⇒ DefBuckets), creating it on first use.
// Safe on a nil Registry.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.familyFor(name, help, kindHistogram, nil, buckets)
	if f == nil {
		return nil
	}
	return f.childFor(nil).hist
}

// CounterVec declares a labeled counter family; With resolves one
// series. Safe on a nil Registry.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	f := r.familyFor(name, help, kindCounter, labelNames, nil)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// HistogramVec declares a labeled histogram family (nil buckets ⇒
// DefBuckets); With resolves one series. Safe on a nil Registry.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.familyFor(name, help, kindHistogram, labelNames, buckets)
	if f == nil {
		return nil
	}
	return &HistogramVec{f: f}
}

// GaugeFunc registers a gauge whose value is computed by fn at render
// time — for cheap derived readings (map sizes, bytes on disk, runs by
// state) that would otherwise need bookkeeping on every mutation.
// labelPairs is an alternating key, value list; registering the same
// (name, labels) again replaces the callback. Safe on a nil Registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	if r == nil {
		return
	}
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("obs: GaugeFunc %q: odd label pair list", name))
	}
	names := make([]string, 0, len(labelPairs)/2)
	values := make([]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		names = append(names, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	f := r.familyFor(name, help, kindGauge, names, nil)
	f.childFor(values).fn.Store(&fn)
}

// lookupChild returns the registered series for (name, labelValues), or
// nil — read-only: unlike the instrument getters it never creates a
// family or series, so snapshot readers do not pollute the registry.
func (r *Registry) lookupChild(name string, labelValues []string) *child {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return nil
	}
	f.mu.Lock()
	c := f.children[childKey(labelValues)]
	f.mu.Unlock()
	return c
}

// CounterValue reads the named counter series (0 when never registered).
// Read-only; see lookupChild.
func (r *Registry) CounterValue(name string, labelValues ...string) uint64 {
	c := r.lookupChild(name, labelValues)
	if c == nil {
		return 0
	}
	return c.counter.Value()
}

// GaugeValue reads the named gauge series (0 when never registered; a
// GaugeFunc series evaluates its callback). Read-only; see lookupChild.
func (r *Registry) GaugeValue(name string, labelValues ...string) float64 {
	c := r.lookupChild(name, labelValues)
	if c == nil {
		return 0
	}
	if fn := c.fn.Load(); fn != nil {
		return (*fn)()
	}
	return c.gauge.Value()
}

// HistogramSum reads the named histogram series' sum of observations
// (0 when never registered). Read-only; see lookupChild.
func (r *Registry) HistogramSum(name string, labelValues ...string) float64 {
	c := r.lookupChild(name, labelValues)
	if c == nil {
		return 0
	}
	return c.hist.Sum()
}

// CounterVec resolves labeled counters.
//
//ones:nilsafe
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per label
// name, in declaration order). Safe on a nil vec.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.childFor(labelValues).counter
}

// HistogramVec resolves labeled histograms.
//
//ones:nilsafe
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values. Safe on a nil
// vec.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.childFor(labelValues).hist
}

// Counter is a monotonically increasing count. The zero value is ready;
// all methods are safe on a nil receiver (no-ops) and for concurrent
// use (one atomic add).
//
//ones:nilsafe
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a value that can go up and down, stored as float64 bits with
// atomic updates. The zero value is ready; all methods are safe on a
// nil receiver and for concurrent use.
//
//ones:nilsafe
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop — contended adds stay correct).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram upper bounds (seconds), spanning
// sub-millisecond cache hits to multi-minute evolution cells.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Histogram counts observations into cumulative buckets, Prometheus
// style. Observations are lock-free: one atomic add into the owning
// bucket, one into the count, and a CAS loop on the float sum.
//
//ones:nilsafe
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implied
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	return &Histogram{bounds: sorted, counts: make([]atomic.Uint64, len(sorted)+1)}
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v (le semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}
