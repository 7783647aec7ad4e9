package ones

import (
	"context"
	"sync"
	"testing"
)

// recorder collects progress events thread-safely.
type recorder struct {
	mu     sync.Mutex
	events []Progress
}

func (r *recorder) Observe(p Progress) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, p)
}

func (r *recorder) byKind() map[ProgressKind][]Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[ProgressKind][]Progress)
	for _, p := range r.events {
		out[p.Kind] = append(out[p.Kind], p)
	}
	return out
}

func TestObserverStreamsCellProgress(t *testing.T) {
	rec := &recorder{}
	s := quickSession(t, WithObserver(rec))
	if _, err := s.Compare(context.Background(), "fifo", "sjf"); err != nil {
		t.Fatal(err)
	}
	got := rec.byKind()
	if n := len(got[KindRunStart]); n != 1 {
		t.Errorf("run-start events = %d, want 1", n)
	}
	if n := len(got[KindRunDone]); n != 1 {
		t.Errorf("run-done events = %d, want 1", n)
	}
	if n := len(got[KindCellStart]); n != 2 {
		t.Errorf("cell-start events = %d, want 2", n)
	}
	done := got[KindCellDone]
	if len(done) != 2 {
		t.Fatalf("cell-done events = %d, want 2", len(done))
	}
	for _, p := range done {
		if p.Cell == "" || p.Scheduler == "" || p.Capacity != 16 || p.Scenario != "steady" {
			t.Errorf("cell-done event missing coordinates: %+v", p)
		}
		if p.Elapsed <= 0 {
			t.Errorf("cell-done event without elapsed time: %+v", p)
		}
		if p.Done < 1 || p.Total != 2 {
			t.Errorf("cell-done progress counters wrong: done=%d total=%d", p.Done, p.Total)
		}
		// Live metrics ride on the event.
		if p.Result == nil {
			t.Fatalf("cell-done event without Result: %+v", p)
		}
		if p.Result.MeanJCT <= 0 || len(p.Result.Jobs) == 0 || p.Result.Scenario != "steady" {
			t.Errorf("cell-done Result incomplete: %+v", p.Result)
		}
	}
	// A memoized re-run emits the batch bracket but no cell events, and
	// the cached cells count as done immediately: the closing run-done
	// must show a completed batch, not one stuck below Total.
	if _, err := s.Compare(context.Background(), "fifo", "sjf"); err != nil {
		t.Fatal(err)
	}
	got = rec.byKind()
	if n := len(got[KindCellDone]); n != 2 {
		t.Errorf("cache hits re-emitted cell events: %d total", n)
	}
	last := got[KindRunDone][len(got[KindRunDone])-1]
	if last.Done != last.Total || last.Total != 4 {
		t.Errorf("cached batch left progress incomplete: done=%d total=%d, want 4/4", last.Done, last.Total)
	}
}

// TestExperimentProgressCountsEachCellOnce: fig15 and table4 share the
// four comparison cells, which run once and are credited once; the
// batch ends at Done == Total == 4.
func TestExperimentProgressCountsEachCellOnce(t *testing.T) {
	rec := &recorder{}
	s, err := New(WithQuickScale(), WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunExperiments(context.Background(), "fig15", "table4"); err != nil {
		t.Fatal(err)
	}
	runDone := rec.byKind()[KindRunDone]
	if len(runDone) != 1 {
		t.Fatalf("run-done events = %d, want 1", len(runDone))
	}
	if p := runDone[0]; p.Done != 4 || p.Total != 4 {
		t.Errorf("run-done progress = %d/%d, want 4/4", p.Done, p.Total)
	}
}

func TestObserverExperimentEvents(t *testing.T) {
	rec := &recorder{}
	s, err := New(WithQuickScale(), WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	// fig2 needs no simulation cells: only experiment + batch events.
	if _, err := s.RunExperiment(context.Background(), "fig2"); err != nil {
		t.Fatal(err)
	}
	got := rec.byKind()
	if len(got[KindExperimentStart]) != 1 || len(got[KindExperimentDone]) != 1 {
		t.Fatalf("experiment events missing: %v", got)
	}
	if got[KindExperimentDone][0].Experiment != "fig2" {
		t.Errorf("experiment-done names %q", got[KindExperimentDone][0].Experiment)
	}
}
