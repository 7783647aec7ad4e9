package obs

import (
	"context"
	"sync"
	"time"
)

// Tracer owns a bounded buffer of traces, keyed by trace ID (onesd uses
// run IDs). When the buffer is full the oldest trace is evicted — a
// long-lived daemon keeps the most recent runs inspectable without
// unbounded memory. Safe for concurrent use.
//
//ones:nilsafe
type Tracer struct {
	maxTraces int
	maxSpans  int

	mu     sync.Mutex
	traces map[string]*Trace
	order  []string // insertion order, for eviction
}

// Default trace-buffer bounds: how many traces a Tracer retains and how
// many spans one trace records before dropping (ONES cells take
// thousands of evolution intervals; the cap keeps the early shape and
// counts the rest).
const (
	DefaultMaxTraces        = 64
	DefaultMaxSpansPerTrace = 512
)

// NewTracer returns a Tracer retaining up to maxTraces traces of up to
// maxSpansPerTrace spans each (≤0 ⇒ the package defaults).
func NewTracer(maxTraces, maxSpansPerTrace int) *Tracer {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpansPerTrace <= 0 {
		maxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	return &Tracer{maxTraces: maxTraces, maxSpans: maxSpansPerTrace, traces: make(map[string]*Trace)}
}

// Start opens a new trace under id with a root span named name and
// returns a context carrying it — StartSpan calls below that context
// record child spans into the trace. Re-using an id replaces the old
// trace. End the returned span to close the root. Safe on a nil Tracer
// (returns ctx unchanged and a nil span).
func (t *Tracer) Start(ctx context.Context, id, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	tr := &Trace{start: time.Now(), maxSpans: t.maxSpans}
	root := tr.newSpan(nil, name)
	t.mu.Lock()
	if _, exists := t.traces[id]; !exists {
		t.order = append(t.order, id)
		for len(t.order) > t.maxTraces {
			delete(t.traces, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.traces[id] = tr
	t.mu.Unlock()
	return ContextWithSpan(ctx, root), root
}

// Tree renders the trace's span tree (children in span-creation order),
// or false if the id is unknown or already evicted. Safe on a nil
// Tracer.
func (t *Tracer) Tree(id string) (*SpanNode, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	tr := t.traces[id]
	t.mu.Unlock()
	if tr == nil {
		return nil, false
	}
	return tr.tree(), true
}

// Trace is one bounded in-memory span buffer. Spans append in creation
// order; once maxSpans is reached further spans are counted as dropped
// instead of stored, so a trace's memory is bounded however long the
// run.
type Trace struct {
	start    time.Time
	maxSpans int

	mu      sync.Mutex
	spans   []*Span
	dropped int
}

// newSpan appends a started span (or counts a drop and returns nil —
// every Span method is nil-safe, so callers never check).
func (tr *Trace) newSpan(parent *Span, name string) *Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= tr.maxSpans {
		tr.dropped++
		return nil
	}
	s := &Span{trace: tr, parent: parent, name: name, start: time.Now()}
	tr.spans = append(tr.spans, s)
	return s
}

// Span is one timed section of a trace. The zero of a trace-less
// (nil) span is a no-op: StartChild returns nil, End and Annotate do
// nothing — instrumented code never branches on whether tracing is on.
//
//ones:nilsafe
type Span struct {
	trace  *Trace
	parent *Span
	name   string
	start  time.Time

	mu    sync.Mutex
	end   time.Time
	attrs map[string]string
}

// StartChild opens and records a child span. Safe on a nil receiver.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.trace.newSpan(s, name)
}

// End closes the span (first call wins; later calls are no-ops). Safe
// on a nil receiver.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Annotate attaches a key=value attribute to the span. Safe on a nil
// receiver.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// spanKey carries the current span through a context.
type spanKey struct{}

// ContextWithSpan returns a context carrying span as the current parent
// for StartSpan.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, span)
}

// SpanFromContext returns the context's current span (nil when the
// context carries no trace).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's current span and returns a
// context carrying the child plus the child itself. When the context
// carries no trace — tracing off — it returns the context unchanged and
// a nil (no-op) span, so instrumented code pays one map lookup and
// nothing else.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	if child == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, child), child
}

// SpanNode is one span in a trace tree. Times are
// milliseconds relative to the trace start, so a tree is readable
// without clock context.
type SpanNode struct {
	Name       string
	StartMS    float64
	DurationMS float64
	InProgress bool
	Attrs      map[string]string
	Children   []*SpanNode
	// DroppedSpans (root only) counts spans the bounded buffer refused.
	DroppedSpans int
}

// tree assembles the span tree. Spans were appended in creation order
// and parents are always created before children, so one forward pass
// links every node; children keep creation order.
func (tr *Trace) tree() *SpanNode {
	tr.mu.Lock()
	spans := append([]*Span(nil), tr.spans...)
	dropped := tr.dropped
	tr.mu.Unlock()
	if len(spans) == 0 {
		return &SpanNode{Name: "(empty)", DroppedSpans: dropped}
	}
	nodes := make(map[*Span]*SpanNode, len(spans))
	var root *SpanNode
	for _, s := range spans {
		s.mu.Lock()
		end := s.end
		var attrs map[string]string
		if len(s.attrs) > 0 {
			attrs = make(map[string]string, len(s.attrs))
			for k, v := range s.attrs {
				attrs[k] = v
			}
		}
		s.mu.Unlock()
		n := &SpanNode{
			Name:    s.name,
			StartMS: float64(s.start.Sub(tr.start)) / float64(time.Millisecond),
			Attrs:   attrs,
		}
		if end.IsZero() {
			n.InProgress = true
		} else {
			n.DurationMS = float64(end.Sub(s.start)) / float64(time.Millisecond)
		}
		nodes[s] = n
		if s.parent == nil {
			root = n
			continue
		}
		if p := nodes[s.parent]; p != nil {
			p.Children = append(p.Children, n)
		}
	}
	if root == nil {
		root = &SpanNode{Name: "(orphaned)"}
	}
	root.DroppedSpans = dropped
	return root
}
