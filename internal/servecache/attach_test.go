package servecache

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/simulator"
)

// TestAttachedLifecycle walks the attachment through a memo entry's life:
// built once and shared while the entry holds the result; built but not
// attached for a stale result, an in-flight or a missing entry; gone
// with its entry after a cap eviction or Reset; absent from an entry
// reloaded from disk.
func TestAttachedLifecycle(t *testing.T) {
	ctx := context.Background()
	c := mustCache(t, t.TempDir())
	do := func(key string) *simulator.Result {
		t.Helper()
		res, err := c.Do(ctx, key, func() (*simulator.Result, error) { return simulate(t, "fifo", false), nil })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	builds := 0
	build := func(s string) func() []byte {
		return func() []byte {
			builds++
			// Build may use the cache: it runs outside the cache's lock.
			c.Stats()
			return append(make([]byte, 0, 64), s...)
		}
	}
	attach := func(key string, res *simulator.Result, s string) []byte {
		t.Helper()
		return c.Attached(key, res, build(s))
	}

	a := do("a")
	first := attach("a", a, "a1")
	if builds != 1 || string(first) != "a1" {
		t.Fatalf("first Attached = %q after %d builds, want a1 after 1", first, builds)
	}
	if cap(first) != len(first) {
		t.Errorf("attached bytes have capacity %d for length %d: an append would write into them", cap(first), len(first))
	}
	if again := attach("a", a, "a2"); builds != 1 || &again[0] != &first[0] {
		t.Fatalf("second Attached = %q after %d builds, want the first bytes, unbuilt", again, builds)
	}

	// A result the entry does not hold gets its bytes, unattached.
	stale := &simulator.Result{}
	if got := attach("a", stale, "stale"); string(got) != "stale" {
		t.Fatalf("Attached for a stale result = %q", got)
	}
	if got := attach("missing", a, "m"); string(got) != "m" {
		t.Fatalf("Attached for a missing key = %q", got)
	}
	if got := attach("a", a, "a3"); &got[0] != &first[0] {
		t.Fatalf("a stale or missing build replaced the attachment: %q", got)
	}

	// A build that returns nil attaches nothing.
	b := do("b")
	if got := c.Attached("b", b, func() []byte { return nil }); got != nil {
		t.Fatalf("Attached with a nil build = %q", got)
	}
	if got := attach("b", b, "b1"); string(got) != "b1" {
		t.Fatalf("Attached after a nil build = %q, want b1", got)
	}

	// Reset drops the entry and its bytes; the reload from disk is a new
	// result, which starts without bytes.
	c.Reset()
	if got := attach("a", a, "gone"); string(got) != "gone" {
		t.Fatalf("Attached after Reset = %q, want a fresh build", got)
	}
	reloaded := do("a")
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want a disk reload", st)
	}
	if reloaded == a {
		t.Fatal("the disk reload returned the evicted result")
	}
	if got := attach("a", a, "old"); string(got) != "old" {
		t.Fatalf("Attached for the evicted result = %q", got)
	}
	if got := attach("a", reloaded, "r1"); string(got) != "r1" {
		t.Fatalf("Attached on the reloaded entry = %q, want r1 (no bytes carried over)", got)
	}

	// A cap eviction drops the bytes too.
	c.SetLimits(Limits{MaxEntries: 1})
	do("c")
	if st := c.Stats(); st.Entries != 1 || st.MemoEvictions == 0 {
		t.Fatalf("stats = %+v, want one entry after evictions", st)
	}
	if got := attach("a", reloaded, "evicted"); string(got) != "evicted" {
		t.Fatalf("Attached after a cap eviction = %q", got)
	}
}

// TestAttachedSkipsInFlightEntries: an entry still computing holds no
// result yet, so nothing is attached to it.
func TestAttachedSkipsInFlightEntries(t *testing.T) {
	c := mustCache(t, "")
	res := &simulator.Result{}
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "k", func() (*simulator.Result, error) {
			close(started)
			<-release
			return res, nil
		})
	}()
	<-started
	if got := c.Attached("k", nil, func() []byte { return []byte("x") }); string(got) != "x" {
		t.Fatalf("Attached on an in-flight entry = %q", got)
	}
	close(release)
	<-done
	if got := c.Attached("k", res, func() []byte { return []byte("y") }); !bytes.Equal(got, []byte("y")) {
		t.Fatalf("Attached after completion = %q, want y (nothing attached in flight)", got)
	}
}

// TestAttachedConcurrent: callers racing to build one entry's bytes all
// get equal bytes, and once one attaches, every later call shares it.
func TestAttachedConcurrent(t *testing.T) {
	c := mustCache(t, "")
	res := &simulator.Result{}
	if _, err := c.Do(context.Background(), "k", func() (*simulator.Result, error) { return res, nil }); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	got := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Attached("k", res, func() []byte { return []byte("shared") })
		}()
	}
	wg.Wait()
	final := c.Attached("k", res, func() []byte {
		t.Error("built again after the bytes were attached")
		return nil
	})
	for i, b := range got {
		if string(b) != "shared" {
			t.Errorf("caller %d got %q", i, b)
		}
	}
	if string(final) != "shared" {
		t.Errorf("attached bytes = %q", final)
	}
}
