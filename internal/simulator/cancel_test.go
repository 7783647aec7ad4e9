package simulator

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// slowSched is a scheduler whose Decide is expensive until the view's
// cancellation probe fires — the shape of ONES's evolutionary search,
// without dragging the real scheduler (an import cycle) into this
// package's tests.
type slowSched struct {
	perDecide time.Duration
	decides   atomic.Int64
	shortcut  atomic.Int64 // decides cut short by the probe
}

func (s *slowSched) Traits() Traits { return Traits{Name: "slow", ManagesLR: true} }

func (s *slowSched) Decide(_ Trigger, v *View) *cluster.Schedule {
	s.decides.Add(1)
	const slices = 20
	for i := 0; i < slices; i++ {
		if v.Cancelled() {
			s.shortcut.Add(1)
			return nil
		}
		time.Sleep(s.perDecide / slices)
	}
	return nil
}

func cancelTrace(t *testing.T, jobs int) *workload.Trace {
	t.Helper()
	trace, err := workload.Generate(workload.Config{Seed: 5, NumJobs: jobs, MeanInterarrival: 10, MaxReqGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestRunContextAbortsMidCell: cancelling mid-run returns context.Canceled
// well before the uncancelled run would have finished, because the
// scheduler short-circuits its in-flight decision on View.Cancelled and
// the event loop's poll surfaces the error.
func TestRunContextAbortsMidCell(t *testing.T) {
	// 12 arrivals × 100ms per honest decision ≈ 1.2s uncancelled.
	sched := &slowSched{perDecide: 100 * time.Millisecond}
	cfg := DefaultConfig(cancelTrace(t, 12))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunContext(ctx, cfg, sched)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, %v; want context.Canceled", res, err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancellation took %v to surface, want well under the ~1.2s full run", elapsed)
	}
	if sched.shortcut.Load() == 0 && sched.decides.Load() > 1 {
		t.Error("no decision was short-circuited by the cancellation probe")
	}
}

// TestRunContextCancelledBeforeStart: a dead context simulates nothing.
func TestRunContextCancelledBeforeStart(t *testing.T) {
	sched := &slowSched{perDecide: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, DefaultConfig(cancelTrace(t, 4)), sched); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := sched.decides.Load(); n != 0 {
		t.Errorf("%d decisions ran under a pre-cancelled context, want 0", n)
	}
}

// TestRunContextNeverReturnsResultUnderCancel: even when every event
// drains before the poll stride hits (a short cell), a cancelled run
// must fail rather than hand back metrics a short-circuited scheduler
// may have skewed — that error is what keeps the engine cache unpoisoned.
func TestRunContextNeverReturnsResultUnderCancel(t *testing.T) {
	sched := &slowSched{perDecide: 20 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	// 3 jobs ⇒ a handful of events, far under one poll stride.
	res, err := RunContext(ctx, DefaultConfig(cancelTrace(t, 3)), sched)
	if err == nil {
		t.Fatalf("cancelled run returned a result (%d jobs) instead of an error", len(res.Jobs))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunBackwardCompatible: the ctx-free entry point still works and is
// what the determinism suite pins elsewhere.
func TestRunBackwardCompatible(t *testing.T) {
	sched := &slowSched{perDecide: 0}
	res, err := Run(DefaultConfig(cancelTrace(t, 4)), sched)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result from uncancelled run")
	}
}
