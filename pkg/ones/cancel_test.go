package ones

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// cancelSession builds a session whose fig15-style comparison has enough
// cells that cancelling after the first completed one always leaves work
// pending.
func cancelSession(t *testing.T, workers int, extra ...Option) *Session {
	t.Helper()
	opts := append([]Option{
		WithQuickScale(),
		WithTrace(Trace{Jobs: 8, MeanInterarrival: 25}),
		WithPopulation(4),
		WithSeed(5),
		WithWorkers(workers),
	}, extra...)
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCancelMidRunAllWorkerCounts cancels a comparison after its first
// completed cell at every worker count the determinism contract pins,
// and checks prompt return, a clean context.Canceled, full drain (no
// events after return) and that the cancellation never reaches the
// memo cache: an uncancelled rerun is identical to an untouched
// session's.
func TestCancelMidRunAllWorkerCounts(t *testing.T) {
	schedulers := []string{"fifo", "sjf", "tiresias", "optimus", "drl"}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		ctx, cancel := context.WithCancel(context.Background())
		var (
			mu    sync.Mutex
			seen  int
			first sync.Once
		)
		s := cancelSession(t, workers, WithObserver(ObserverFunc(func(p Progress) {
			if p.Kind == KindCellDone {
				mu.Lock()
				seen++
				mu.Unlock()
				first.Do(cancel)
			}
		})))
		_, err := s.Compare(ctx, schedulers...)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Compare after cancel = %v, want context.Canceled", workers, err)
		}
		mu.Lock()
		atReturn := seen
		mu.Unlock()
		if maxRan := workers + 1; atReturn > maxRan {
			t.Errorf("workers=%d: %d cells completed after mid-run cancel, want ≤ %d", workers, atReturn, maxRan)
		}
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		after := seen
		mu.Unlock()
		if after != atReturn {
			t.Errorf("workers=%d: workers not drained: %d cells completed after Compare returned", workers, after-atReturn)
		}

		// Uncancelled rerun on the same session vs an untouched session.
		rerun, err := s.Compare(context.Background(), schedulers...)
		if err != nil {
			t.Fatalf("workers=%d: rerun: %v", workers, err)
		}
		fresh, err := cancelSession(t, workers).Compare(context.Background(), schedulers...)
		if err != nil {
			t.Fatalf("workers=%d: fresh: %v", workers, err)
		}
		for i := range rerun {
			if rerun[i].MeanJCT != fresh[i].MeanJCT || rerun[i].Makespan != fresh[i].Makespan ||
				len(rerun[i].Jobs) != len(fresh[i].Jobs) {
				t.Errorf("workers=%d: %s: rerun after cancel differs from untouched session",
					workers, schedulers[i])
			}
		}
	}
}

// TestRunExperimentCancel cancels the experiment prewarm and verifies
// the rendered output of a later uncancelled run is byte-identical to an
// untouched session's.
func TestRunExperimentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var first sync.Once
	s := cancelSession(t, 2, WithObserver(ObserverFunc(func(p Progress) {
		if p.Kind == KindCellDone {
			first.Do(cancel)
		}
	})))
	_, err := s.RunExperiment(ctx, "fig15")
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunExperiment after cancel = %v, want context.Canceled", err)
	}
	out, err := s.RunExperiment(context.Background(), "fig15")
	if err != nil {
		t.Fatal(err)
	}
	want, err := cancelSession(t, 2).RunExperiment(context.Background(), "fig15")
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Error("fig15 rendered after a cancelled attempt differs from an untouched session's")
	}
}

// TestRunExperimentsCancelBetweenRenders: a cancel that lands after the
// batch has run, between two renders, still fails the call with
// context.Canceled and no outputs, though the next render would simulate
// nothing — so a cancelled cmd/experiments writes no partial stdout.
func TestRunExperimentsCancelBetweenRenders(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := cancelSession(t, 2, WithObserver(ObserverFunc(func(p Progress) {
		if p.Kind == KindExperimentDone && p.Experiment == "fig15" {
			cancel()
		}
	})))
	out, err := s.RunExperiments(ctx, "fig15", "table4")
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("RunExperiments cancelled after fig15 rendered = %d outputs, %v; want none, context.Canceled", len(out), err)
	}
}

// TestCancelAbortsMidCell: cancelling while ONES is deep inside a single
// long evolutionary cell returns promptly — the simulator polls the
// context and the evolution loop short-circuits — instead of running the
// cell to completion. The cancelled cell must not be cached (rerun
// byte-identity after a cancel is pinned at quick scale by
// TestCancelMidRunAllWorkerCounts above).
func TestCancelAbortsMidCell(t *testing.T) {
	mk := func(obs Observer) *Session {
		opts := []Option{
			WithScheduler("ones"),
			WithTrace(Trace{Jobs: 40, MeanInterarrival: 10}),
			WithPopulation(24),
			WithSeed(3),
			WithWorkers(1),
		}
		if obs != nil {
			opts = append(opts, WithObserver(obs))
		}
		s, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	started := make(chan struct{})
	var once sync.Once
	s := mk(ObserverFunc(func(p Progress) {
		if p.Kind == KindCellStart {
			once.Do(func() { close(started) })
		}
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-started
		time.Sleep(200 * time.Millisecond) // let the cell get deep into the run
		cancel()
	}()
	start := time.Now()
	_, err := s.Run(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after mid-cell cancel = %v, want context.Canceled", err)
	}
	// The uncancelled cell takes tens of seconds; sub-second abort is the
	// contract, with generous slack for a loaded CI machine.
	if elapsed > 3*time.Second {
		t.Errorf("mid-cell cancellation took %v, want well under the full cell", elapsed)
	}
	if got := s.SimulatedCells(); got != 0 {
		t.Errorf("SimulatedCells = %d after a cancelled cell, want 0 (not cached)", got)
	}
}

// TestCancelBeforeStart: a dead context simulates nothing.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := cancelSession(t, 2)
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := s.SimulatedCells(); got != 0 {
		t.Errorf("SimulatedCells = %d under a pre-cancelled context, want 0", got)
	}
}
