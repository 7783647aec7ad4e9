package engine

import (
	"context"
	"errors"
	"reflect"
	"repro/internal/simulator"
	"runtime"
	"sync"
	"testing"
	"time"
)

// cancelCells is a grid big enough that cancellation after the first
// completed cell always leaves work unstarted.
func cancelCells() []Cell {
	return grid(Cell{}, []string{"fifo", "sjf", "tiresias", "optimus"}, 16, 32)
}

// TestResultsCancelMidRun is the cancellation contract at every worker
// count the determinism tests pin: cancelling after the first completed
// cell (a) surfaces context.Canceled, (b) stops new cells from starting
// — only work already holding a pool slot finishes, so the call returns
// within one cell boundary — and (c) leaves the cache unpoisoned: an
// uncancelled rerun on the same runner matches a fresh runner's results
// exactly.
func TestResultsCancelMidRun(t *testing.T) {
	cells := cancelCells()
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		r := NewRunner(testParams(workers))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var (
			mu      sync.Mutex
			started int
			ran     int
			first   sync.Once
		)
		r.OnCellStart = func(Cell) {
			mu.Lock()
			started++
			mu.Unlock()
		}
		r.OnCell = func(Cell, *simulator.Result, time.Duration) {
			mu.Lock()
			ran++
			mu.Unlock()
			first.Do(cancel)
		}
		_, err := r.Results(ctx, cells)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Results after cancel = %v, want context.Canceled", workers, err)
		}
		mu.Lock()
		ranAtReturn, startedAtReturn := ran, started
		mu.Unlock()
		// At cancel time one cell had finished and at most workers-1
		// more held pool slots; nothing else may start.
		if maxRan := workers + 1; ranAtReturn > maxRan {
			t.Errorf("workers=%d: %d cells ran after mid-run cancel, want ≤ %d (one cell boundary)",
				workers, ranAtReturn, maxRan)
		}
		// The batch drained: no cell starts after Results returned.
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		if started != startedAtReturn || ran != ranAtReturn {
			t.Errorf("workers=%d: cells still executing after Results returned (started %d→%d, ran %d→%d)",
				workers, startedAtReturn, started, ranAtReturn, ran)
		}
		mu.Unlock()

		// Uncancelled rerun on the SAME runner: every cell must now
		// simulate (nothing cached a cancellation error) and the results
		// must be byte-identical to a fresh runner's.
		rerun, err := r.Results(context.Background(), cells)
		if err != nil {
			t.Fatalf("workers=%d: rerun after cancel: %v", workers, err)
		}
		fresh, err := NewRunner(testParams(workers)).Results(context.Background(), cells)
		if err != nil {
			t.Fatalf("workers=%d: fresh run: %v", workers, err)
		}
		for i := range cells {
			if !reflect.DeepEqual(rerun[i].Jobs, fresh[i].Jobs) || rerun[i].Reconfigs != fresh[i].Reconfigs {
				t.Errorf("workers=%d: cell %s: rerun after cancel differs from an untouched runner",
					workers, cells[i])
			}
		}
	}
}

// TestResultsCancelledBeforeStart: a dead context runs nothing at all.
func TestResultsCancelledBeforeStart(t *testing.T) {
	r := NewRunner(testParams(2))
	ran := 0
	r.OnCell = func(Cell, *simulator.Result, time.Duration) { ran++ }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Results(ctx, cancelCells()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d cells simulated under a context cancelled before the call", ran)
	}
	if got := r.CachedCells(); got != 0 {
		t.Errorf("CachedCells = %d after a fully cancelled batch, want 0", got)
	}
}

// TestResultsCancelNoGoroutineLeak: the worker goroutines of a cancelled
// batch all exit.
func TestResultsCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRunner(testParams(2))
	ctx, cancel := context.WithCancel(context.Background())
	var first sync.Once
	r.OnCell = func(Cell, *simulator.Result, time.Duration) { first.Do(cancel) }
	if _, err := r.Results(ctx, cancelCells()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The pool drains before Results returns; give the runtime a moment
	// to retire exiting goroutines before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked by cancelled batch: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResultErrorNotRetriedForever: a deterministic failure (unknown
// scheduler) is cached, not deleted like a cancellation, so waiters do
// not recompute it in a loop.
func TestResultErrorStaysCached(t *testing.T) {
	r := NewRunner(testParams(1))
	for i := 0; i < 2; i++ {
		if _, err := r.Result(context.Background(), Cell{Scheduler: "bogus", Capacity: 16}); err == nil {
			t.Fatal("unknown scheduler accepted")
		}
	}
	if got := r.CachedCells(); got != 1 {
		t.Errorf("CachedCells = %d, want the failed cell cached once", got)
	}
}
