package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("jobs_total", "jobs"); again != c {
		t.Error("Counter is not get-or-create: second handle differs")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(0.5)
	if got := g.Value(); got != 3.5 {
		t.Errorf("gauge = %v, want 3.5", got)
	}
	h := r.Histogram("latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 55.55 {
		t.Errorf("hist sum = %v, want 55.55", h.Sum())
	}
}

func TestVecsResolveDistinctSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http_requests_total", "requests", "endpoint", "code")
	v.With("/v1/runs", "200").Add(3)
	v.With("/v1/runs", "404").Inc()
	v.With("/metrics", "200").Inc()
	if got := v.With("/v1/runs", "200").Value(); got != 3 {
		t.Errorf("series = %d, want 3", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`http_requests_total{endpoint="/v1/runs",code="200"} 3`,
		`http_requests_total{endpoint="/v1/runs",code="404"} 1`,
		`http_requests_total{endpoint="/metrics",code="200"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a", "a").Inc()
	r.Gauge("b", "b").Set(1)
	r.Histogram("c", "c", nil).Observe(1)
	r.CounterVec("d", "d", "l").With("x").Inc()
	r.HistogramVec("f", "f", nil, "l").With("x").Observe(3)
	r.GaugeFunc("g", "g", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read zero")
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	for name, f := range map[string]func(){
		"kind":   func() { r.Gauge("x_total", "x") },
		"labels": func() { r.CounterVec("x_total", "x", "l") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

// sampleLine matches one Prometheus text sample:
// name{label="value",...} value
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|NaN|[+-]Inf)$`)

// TestPrometheusExpositionConformance renders a registry exercising
// every instrument kind and label shape, then parses the output line by
// line: every sample's family must have emitted # HELP and # TYPE
// lines first, names and labels must match the exposition grammar,
// histogram buckets must be cumulative and end in an le="+Inf" bucket
// equal to _count, and families must appear in sorted order.
func TestPrometheusExpositionConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_cells_completed_total", "cells completed").Add(7)
	r.CounterVec("servecache_hits_total", "cache hits", "source").With("disk").Add(2)
	r.Gauge("engine_workers_busy", "busy workers").Set(3)
	r.GaugeFunc("onesd_runs", "runs by state", func() float64 { return 2 }, "state", "running")
	r.GaugeFunc("onesd_runs", "runs by state", func() float64 { return 5 }, "state", "done")
	h := r.Histogram("engine_cell_seconds", "cell wall time", []float64{0.1, 1, 10})
	for _, v := range []float64{0.01, 0.5, 0.7, 3, 30} {
		h.Observe(v)
	}
	r.HistogramVec("http_request_seconds", "latency", []float64{0.5}, "endpoint").
		With(`weird"label\value`).Observe(0.2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	type famState struct {
		typ     string
		help    bool
		buckets map[string]uint64 // labels-sans-le → last cumulative value
		counts  map[string]uint64 // labels → _count value
	}
	fams := make(map[string]*famState)
	var lastFam string
	nameOf := func(metric string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(metric, suffix)
			if base != metric {
				if f, ok := fams[base]; ok && f.typ == "histogram" {
					return base
				}
			}
		}
		return metric
	}
	for i, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", i, line)
			}
			if fams[parts[0]] == nil {
				fams[parts[0]] = &famState{buckets: map[string]uint64{}, counts: map[string]uint64{}}
			}
			fams[parts[0]].help = true
			if parts[0] < lastFam {
				t.Errorf("family %q out of sorted order (after %q)", parts[0], lastFam)
			}
			lastFam = parts[0]
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", i, line)
			}
			if parts[1] != "counter" && parts[1] != "gauge" && parts[1] != "histogram" {
				t.Errorf("line %d: unknown type %q", i, parts[1])
			}
			f := fams[parts[0]]
			if f == nil || !f.help {
				t.Errorf("line %d: TYPE before HELP for %q", i, parts[0])
			} else {
				f.typ = parts[1]
			}
		default:
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: not a valid sample: %q", i, line)
			}
			fam := nameOf(m[1])
			f := fams[fam]
			if f == nil || !f.help || f.typ == "" {
				t.Fatalf("line %d: sample %q before its HELP/TYPE", i, m[1])
			}
			if f.typ == "histogram" && strings.HasSuffix(m[1], "_bucket") {
				labels := m[2]
				le := regexp.MustCompile(`,?le="([^"]*)"`).FindStringSubmatch(labels)
				if le == nil {
					t.Fatalf("line %d: bucket without le: %q", i, line)
				}
				base := strings.Replace(labels, le[0], "", 1)
				v, err := strconv.ParseUint(m[3], 10, 64)
				if err != nil {
					t.Fatalf("line %d: bucket value %q: %v", i, m[3], err)
				}
				if prev, ok := f.buckets[base]; ok && v < prev {
					t.Errorf("line %d: bucket not cumulative: %d after %d", i, v, prev)
				}
				f.buckets[base] = v
				if le[1] == "+Inf" {
					f.counts[base] = v
				}
			}
			if f.typ == "histogram" && strings.HasSuffix(m[1], "_count") {
				v, _ := strconv.ParseUint(m[3], 10, 64)
				want, ok := f.counts[normalizeEmpty(m[2])]
				if !ok || want != v {
					t.Errorf("line %d: _count %d disagrees with le=+Inf bucket %d", i, v, want)
				}
			}
		}
	}
	// Spot-check required series made it out at all.
	for _, want := range []string{
		"engine_cells_completed_total 7",
		`servecache_hits_total{source="disk"} 2`,
		`onesd_runs{state="done"} 5`,
		`engine_cell_seconds_bucket{le="+Inf"} 5`,
		`http_request_seconds_bucket{endpoint="weird\"label\\value",le="0.5"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// normalizeEmpty maps the label set of a _count line onto the
// bucket-map key built by stripping le from a _bucket line: a histogram
// with no other labels yields "{}" there and "" on the _count line.
func normalizeEmpty(labels string) string {
	if labels == "" {
		return "{}"
	}
	return labels
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// increments, vec resolution, gauge funcs, histogram observes and
// renders all interleave — and asserts the final counts. Run with
// -race (CI does).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("ops_total", "ops")
			vec := r.CounterVec("ops_by_kind_total", "ops by kind", "kind")
			h := r.Histogram("op_seconds", "op latency", nil)
			g := r.Gauge("inflight", "in flight")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				vec.With(fmt.Sprintf("kind%d", i%3)).Inc()
				h.Observe(float64(i%10) / 10)
				g.Inc()
				g.Dec()
				if i%500 == 0 {
					r.GaugeFunc("derived", "derived", func() float64 { return float64(i) }, "w", fmt.Sprint(w))
					if err := r.WritePrometheus(&strings.Builder{}); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("ops_total", "ops").Value(); got != workers*perWorker {
		t.Errorf("ops_total = %d, want %d", got, workers*perWorker)
	}
	var total uint64
	vec := r.CounterVec("ops_by_kind_total", "ops by kind", "kind")
	for k := 0; k < 3; k++ {
		total += vec.With(fmt.Sprintf("kind%d", k)).Value()
	}
	if total != workers*perWorker {
		t.Errorf("ops_by_kind_total sums to %d, want %d", total, workers*perWorker)
	}
	if got := r.Histogram("op_seconds", "op latency", nil).Count(); got != workers*perWorker {
		t.Errorf("op_seconds count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("inflight", "in flight").Value(); got != 0 {
		t.Errorf("inflight = %v, want 0", got)
	}
}
