package ones

import (
	"context"
	"io"

	"repro/internal/obs"
)

// Metrics is an opt-in, process-wide telemetry sink for Sessions: a
// metrics registry rendering the Prometheus text exposition format plus
// a bounded in-memory trace buffer recording per-run cell lifecycles
// (queued → trace-gen → simulate → evolution intervals → done).
//
// Plug one Metrics into any number of Sessions with WithMetrics; they
// aggregate into it. Telemetry is strictly out of band: a Session's
// results are byte-identical with metrics enabled or disabled (the
// determinism test in this package pins that), and the disabled path
// costs one nil check per recording site.
type Metrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer
}

// NewMetrics returns an empty Metrics sink with the default trace-buffer
// bounds (64 traces of 512 spans each).
func NewMetrics() *Metrics {
	return &Metrics{reg: obs.NewRegistry(), tracer: obs.NewTracer(0, 0)}
}

// WritePrometheus renders every metric family in the Prometheus text
// exposition format (version 0.0.4). Rendering is deterministic for a
// given state: families sorted by name, series by label values. Safe on
// a nil Metrics (writes nothing).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	return m.reg.WritePrometheus(w)
}

// StartTrace opens a trace under id (onesd uses run IDs) rooted at a
// span named name, and returns a context carrying it plus a function
// closing the root span. Session work invoked with the returned context
// records its cell lifecycle spans into the trace; read it back with
// TraceTree. Re-using an id replaces the old trace, and when the buffer
// is full the oldest trace is evicted. Safe on a nil Metrics (returns
// ctx unchanged and a no-op closer).
func (m *Metrics) StartTrace(ctx context.Context, id, name string) (context.Context, func()) {
	if m == nil {
		return ctx, func() {}
	}
	ctx, span := m.tracer.Start(ctx, id, name)
	return ctx, span.End
}

// TraceTree returns the recorded span tree for a trace id, or false when
// the id is unknown or already evicted. Safe on a nil Metrics.
func (m *Metrics) TraceTree(id string) (*TraceNode, bool) {
	if m == nil {
		return nil, false
	}
	node, ok := m.tracer.Tree(id)
	if !ok {
		return nil, false
	}
	return newTraceNode(node), true
}

// TraceNode is one span in a recorded trace tree. Times are milliseconds
// relative to the trace start.
type TraceNode struct {
	// Name is the span name (e.g. "run", "cell ones/64gpu/trace1/steady",
	// "queued", "simulate", "evolution-interval").
	Name string `json:"name"`
	// StartMS is the span's start offset from the trace start.
	StartMS float64 `json:"start_ms"`
	// DurationMS is the span's length (0 while InProgress).
	DurationMS float64 `json:"duration_ms"`
	// InProgress marks a span not yet ended at render time.
	InProgress bool `json:"in_progress,omitempty"`
	// Attrs holds the span's key=value annotations (scheduler, error,
	// cancelled).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Children are the span's sub-spans, in creation order.
	Children []*TraceNode `json:"children,omitempty"`
	// DroppedSpans (root only) counts spans the bounded buffer refused.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// newTraceNode mirrors an internal span tree into the public type.
func newTraceNode(n *obs.SpanNode) *TraceNode {
	out := &TraceNode{
		Name:         n.Name,
		StartMS:      n.StartMS,
		DurationMS:   n.DurationMS,
		InProgress:   n.InProgress,
		Attrs:        n.Attrs,
		DroppedSpans: n.DroppedSpans,
	}
	if len(n.Children) > 0 {
		out.Children = make([]*TraceNode, len(n.Children))
		for i, c := range n.Children {
			out.Children[i] = newTraceNode(c)
		}
	}
	return out
}

// Registry exposes the underlying internal/obs registry for in-module
// consumers (the onesd server mounts HTTP middleware and daemon gauges
// on it). External importers cannot name the returned type and should
// treat Metrics as opaque.
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// MetricsSnapshot is a point-in-time reading of the headline series, for
// in-process consumers that want numbers without parsing Prometheus
// text. Fields read zero until the relevant subsystem has recorded.
type MetricsSnapshot struct {
	// Engine cell lifecycle (cache hits excluded throughout).
	CellsStarted   uint64  `json:"cells_started"`
	CellsCompleted uint64  `json:"cells_completed"`
	CellsCancelled uint64  `json:"cells_cancelled"`
	CellsFailed    uint64  `json:"cells_failed"`
	CellSeconds    float64 `json:"cell_seconds"` // total wall time simulating

	// Shared result cache (see WithCache).
	CacheMemoryHits uint64 `json:"cache_memory_hits"`
	CacheDiskHits   uint64 `json:"cache_disk_hits"`
	CacheComputes   uint64 `json:"cache_computes"`

	// ONES evolutionary search.
	Generations uint64 `json:"generations"`
	Candidates  uint64 `json:"candidates"`
	MemoHits    uint64 `json:"memo_hits"`
	MemoMisses  uint64 `json:"memo_misses"`
	Decisions   uint64 `json:"decisions"`
	Deployments uint64 `json:"deployments"`
}

// Snapshot reads the current values of the headline series. Reads are
// per-series atomic (not a registry-wide consistent cut, which the hot
// paths never pause for). Safe on a nil Metrics (all zeros).
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	r := m.reg
	return MetricsSnapshot{
		CellsStarted:    r.CounterValue("engine_cells_started_total"),
		CellsCompleted:  r.CounterValue("engine_cells_completed_total"),
		CellsCancelled:  r.CounterValue("engine_cells_cancelled_total"),
		CellsFailed:     r.CounterValue("engine_cells_failed_total"),
		CellSeconds:     r.HistogramSum("engine_cell_seconds"),
		CacheMemoryHits: r.CounterValue("servecache_hits_total", "memory"),
		CacheDiskHits:   r.CounterValue("servecache_hits_total", "disk"),
		CacheComputes:   r.CounterValue("servecache_computes_total"),
		Generations:     r.CounterValue("evolution_generations_total"),
		Candidates:      r.CounterValue("evolution_candidates_total"),
		MemoHits:        r.CounterValue("evolution_memo_hits_total"),
		MemoMisses:      r.CounterValue("evolution_memo_misses_total"),
		Decisions:       r.CounterValue("ones_decisions_total"),
		Deployments:     r.CounterValue("ones_deployments_total"),
	}
}

// WithMetrics wires a telemetry sink into the Session: the engine, the
// ONES search and — when a WithCache cache is also configured — the
// cache record into it, and runs invoked under a StartTrace context
// record span trees. Many Sessions may share one Metrics; their series
// aggregate. Telemetry never changes results (see Metrics).
func WithMetrics(m *Metrics) Option {
	return func(s *settings) { s.metrics = m }
}
