package ones

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// newMetricsTestSession builds a small, fast session; extra options
// append after the base configuration.
func newMetricsTestSession(t *testing.T, extra ...Option) *Session {
	t.Helper()
	opts := append([]Option{
		WithQuickScale(),
		WithTopology(4, 4),
		WithTrace(Trace{Jobs: 8, MeanInterarrival: 25, MaxGPUs: 4}),
		WithSeed(3),
	}, extra...)
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricsDoNotChangeResults pins the determinism contract: enabling
// the full telemetry stack (metrics, tracing, instrumented cache) yields
// byte-identical Result JSON to a bare run.
func TestMetricsDoNotChangeResults(t *testing.T) {
	ctx := context.Background()

	bare := newMetricsTestSession(t)
	want, err := bare.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	m := NewMetrics()
	cache, err := NewCache("", nil)
	if err != nil {
		t.Fatal(err)
	}
	instrumented := newMetricsTestSession(t, WithMetrics(m), WithCache(cache))
	tctx, end := m.StartTrace(ctx, "run-a", "run")
	got, err := instrumented.Run(tctx)
	end()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJSON) != string(gotJSON) {
		t.Error("Result JSON differs with metrics enabled")
	}
}

// TestMetricsRecordRunTelemetry checks the instrumented layers all
// surface series after one run, both in the snapshot and the Prometheus
// rendering, and that the run's trace tree has the expected shape.
func TestMetricsRecordRunTelemetry(t *testing.T) {
	m := NewMetrics()
	cache, err := NewCache("", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newMetricsTestSession(t, WithMetrics(m), WithCache(cache))
	ctx, end := m.StartTrace(context.Background(), "run-1", "run")
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	end()

	snap := m.Snapshot()
	if snap.CellsStarted != 1 || snap.CellsCompleted != 1 {
		t.Errorf("cells started/completed = %d/%d, want 1/1", snap.CellsStarted, snap.CellsCompleted)
	}
	if snap.CacheComputes != 1 {
		t.Errorf("cache computes = %d, want 1", snap.CacheComputes)
	}
	if snap.Generations == 0 || snap.Candidates == 0 || snap.Decisions == 0 {
		t.Errorf("evolution telemetry missing: %+v", snap)
	}
	if snap.MemoHits == 0 {
		t.Error("throughput memo recorded no hits")
	}
	if snap.CellSeconds <= 0 {
		t.Error("cell wall-time histogram recorded nothing")
	}

	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"engine_cells_completed_total 1",
		"engine_workers ",
		"evolution_generations_total ",
		"ones_decisions_total ",
		"servecache_computes_total 1",
		"servecache_entries 1",
		"engine_cell_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}

	tree, ok := m.TraceTree("run-1")
	if !ok {
		t.Fatal("trace run-1 missing")
	}
	if tree.Name != "run" || tree.InProgress {
		t.Fatalf("root = %q (in_progress=%v), want ended \"run\"", tree.Name, tree.InProgress)
	}
	if len(tree.Children) != 1 || !strings.HasPrefix(tree.Children[0].Name, "cell ") {
		t.Fatalf("root children = %+v, want one cell span", tree.Children)
	}
	names := map[string]bool{}
	for _, c := range tree.Children[0].Children {
		names[c.Name] = true
	}
	for _, want := range []string{"queued", "trace-gen", "simulate"} {
		if !names[want] {
			t.Errorf("cell span missing %q child (have %v)", want, names)
		}
	}
	// The JSON rendering is what onesd serves; it must round-trip.
	if _, err := json.Marshal(tree); err != nil {
		t.Fatal(err)
	}

	// A second identical run is a memory hit: no new cells simulate.
	ctx2, end2 := m.StartTrace(context.Background(), "run-2", "run")
	if _, err := s.Run(ctx2); err != nil {
		t.Fatal(err)
	}
	end2()
	if snap2 := m.Snapshot(); snap2.CellsStarted != 1 {
		t.Errorf("second run started %d cells, want 1 (memoized)", snap2.CellsStarted)
	}
}

// TestNilMetricsSafe pins the zero-cost disabled path: a nil *Metrics is
// valid everywhere.
func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	if err := m.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	ctx, end := m.StartTrace(context.Background(), "x", "run")
	end()
	if ctx == nil {
		t.Fatal("nil Metrics must pass the context through")
	}
	if _, ok := m.TraceTree("x"); ok {
		t.Error("nil Metrics cannot hold traces")
	}
	if snap := m.Snapshot(); snap != (MetricsSnapshot{}) {
		t.Errorf("nil snapshot = %+v, want zero", snap)
	}
}
