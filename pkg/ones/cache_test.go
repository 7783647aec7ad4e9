package ones

import (
	"context"
	"encoding/json"
	"testing"
)

func cacheSession(t *testing.T, c *Cache, extra ...Option) *Session {
	t.Helper()
	opts := []Option{
		WithQuickScale(),
		WithTrace(Trace{Jobs: 8, MeanInterarrival: 25}),
		WithScheduler("tiresias"),
		WithSeed(9),
	}
	if c != nil {
		opts = append(opts, WithCache(c))
	}
	s, err := New(append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkHitProgress asserts that a one-cell run served from the cache
// simulated nothing (no cell events) yet finished its cell: a single
// run-done at Done == Total == 1.
func checkHitProgress(t *testing.T, rec *recorder) {
	t.Helper()
	got := rec.byKind()
	if n := len(got[KindCellStart]) + len(got[KindCellDone]); n != 0 {
		t.Errorf("cache hit emitted %d cell events, want 0", n)
	}
	if rd := got[KindRunDone]; len(rd) != 1 || rd[0].Done != 1 || rd[0].Total != 1 {
		t.Errorf("cache hit run-done events %+v, want one at Done == Total == 1", rd)
	}
}

// TestRenderNeverSimulates: experiments render from the results of
// their batch, not through the cache, so a memo too small to hold the
// batch still computes each distinct cell once — fig15 and table4 share
// their four cells.
func TestRenderNeverSimulates(t *testing.T) {
	c, err := NewCache("", func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	c.SetLimits(CacheLimits{MaxEntries: 1})
	s, err := New(WithQuickScale(), WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunExperiments(context.Background(), "fig15", "table4"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Computes; got != 4 {
		t.Errorf("fig15 + table4 computed %d cells, want the 4 distinct ones", got)
	}
}

// TestWithCacheWarmRestart: a second session over the same cache
// directory — the restarted-daemon / re-invoked-CLI path — serves the
// run from disk, simulating nothing, byte-identical to the cold result.
func TestWithCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cacheSession(t, c1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.Computes != 1 {
		t.Fatalf("cold stats = %+v, want 1 compute", st)
	}

	c2, err := NewCache(dir, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	warm, err := cacheSession(t, c2, WithObserver(rec)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkHitProgress(t, rec)
	if st := c2.Stats(); st.DiskHits != 1 || st.Computes != 0 {
		t.Errorf("warm stats = %+v, want 1 disk hit and 0 computes", st)
	}
	cb, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(cb) != string(wb) {
		t.Error("warm result is not byte-identical to the cold one")
	}
}

// TestWithCacheSharedAcrossSessions: two sessions sharing one in-memory
// cache compute the identical run once between them; the second still
// reports its cell done.
func TestWithCacheSharedAcrossSessions(t *testing.T) {
	c, err := NewCache("", nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cacheSession(t, c).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	b, err := cacheSession(t, c, WithObserver(rec)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkHitProgress(t, rec)
	if st := c.Stats(); st.Computes != 1 || st.MemoryHits != 1 {
		t.Errorf("stats = %+v, want the second session's run served from memory", st)
	}
	if a.MeanJCT != b.MeanJCT || a.Makespan != b.Makespan {
		t.Error("shared-cache sessions disagree on the identical run")
	}
}

// TestWithCacheDoesNotChangeResults: a cached session's result equals an
// uncached one's — the cache is a performance layer, never a semantic one.
func TestWithCacheDoesNotChangeResults(t *testing.T) {
	c, err := NewCache(t.TempDir(), func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := cacheSession(t, c).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := cacheSession(t, nil).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.Marshal(cached)
	if err != nil {
		t.Fatal(err)
	}
	if string(pb) != string(cb) {
		t.Error("cached session's result differs from an uncached session's")
	}
}
