package servecache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/simulator"
)

// TestAttachedLifecycle walks the attachment through a memo entry's life:
// built once and shared while the entry holds the result; built but not
// attached for a stale result, an in-flight or a missing entry; gone
// with its entry after a cap eviction or Reset; carried by an entry
// reloaded from a record that persisted it, and absent from one
// reloaded from a record written without it.
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

	// Reset drops the entry and its bytes from the memo; the reload from
	// disk is a new result, which carries the bytes its record persisted
	// when they were attached.
	d := do("d") // never attached: its record carries no bytes
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
	before := builds
	if got := attach("a", reloaded, "r1"); string(got) != "a1" || builds != before {
		t.Fatalf("Attached on the reloaded entry = %q after %d builds, want the persisted a1, unbuilt", got, builds-before)
	}
	reloadedD := do("d")
	if reloadedD == d {
		t.Fatal("the disk reload returned the evicted result")
	}
	if got := attach("d", reloadedD, "d1"); string(got) != "d1" || builds != before+1 {
		t.Fatalf("Attached on an entry reloaded without bytes = %q after %d builds, want d1, built", got, builds-before)
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

// TestAttachedPersists: the call that attaches bytes rewrites the cell's
// record, so a second cache over the directory serves them from its disk
// hit without calling build. A rewrite that fails warns, and the memo
// still serves the bytes.
func TestAttachedPersists(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	res := simulate(t, "fifo", true)
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCache(t, dir)
	if _, err := c.Do(ctx, "k", func() (*simulator.Result, error) { return res, nil }); err != nil {
		t.Fatal(err)
	}
	c.Attached("k", res, func() []byte { return blob })

	c2 := mustCache(t, dir)
	got, err := c2.Do(ctx, "k", func() (*simulator.Result, error) {
		t.Fatal("the second cache recomputed a persisted cell")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	served := c2.Attached("k", got, func() []byte {
		t.Error("the second cache built bytes its disk hit should have carried")
		return nil
	})
	if !bytes.Equal(served, blob) {
		t.Fatalf("the second cache served %d bytes, want the %d persisted", len(served), len(blob))
	}
	if cap(served) != len(served) {
		t.Errorf("loaded bytes have capacity %d for length %d: an append would write into the record", cap(served), len(served))
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Computes != 0 {
		t.Errorf("second cache stats = %+v, want one disk hit and no compute", st)
	}

	// A rewrite into a directory that is gone fails, and warns.
	var warnings []string
	c3, err := New(dir, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Do(ctx, "fresh", func() (*simulator.Result, error) { return res, nil }); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	first := c3.Attached("fresh", res, func() []byte { return blob })
	if len(warnings) != 1 || !strings.HasPrefix(warnings[0], "servecache: temp file") {
		t.Errorf("a failed rewrite warned %q, want one temp-file warning", warnings)
	}
	again := c3.Attached("fresh", res, func() []byte {
		t.Error("built again after a failed rewrite")
		return nil
	})
	if !bytes.Equal(first, blob) || &again[0] != &first[0] {
		t.Error("the memo lost the bytes whose rewrite failed")
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

// TestAttachedConcurrentPersists races attachments against Resets and
// the disk reloads they cause, over a directory, so the race detector
// sees rewrites beside loads of the same record: every caller gets the
// bytes, no load ever finds a torn record, and a fresh cache loads the
// bytes back without building them.
func TestAttachedConcurrentPersists(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	c := mustCache(t, dir)
	res := simulate(t, "fifo", false)
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	compute := func() (*simulator.Result, error) { return res, nil }
	if _, err := c.Do(ctx, "k", compute); err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 8, 20
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if i == 0 {
					c.Reset()
				}
				got, err := c.Do(ctx, "k", compute)
				if err != nil {
					t.Error(err)
					return
				}
				if b := c.Attached("k", got, func() []byte { return blob }); !bytes.Equal(b, blob) {
					t.Errorf("caller %d got %d bytes, want the blob", i, len(b))
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Computes != 1 || st.Discards != 0 {
		t.Errorf("stats = %+v, want the one compute and no discard", st)
	}
	fresh := mustCache(t, dir)
	got, err := fresh.Do(ctx, "k", func() (*simulator.Result, error) {
		t.Fatal("a fresh cache recomputed the cell")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := fresh.Attached("k", got, func() []byte { return nil }); !bytes.Equal(b, blob) {
		t.Errorf("a fresh cache loaded %d attached bytes, want the blob", len(b))
	}
}
