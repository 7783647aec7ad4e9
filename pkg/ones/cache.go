package ones

import "repro/internal/servecache"

// Cache is a shared simulation-result cache: plug one Cache into any
// number of Sessions (ones.WithCache) and every distinct simulation cell
// computes at most once across all of them, with concurrent requests for
// the same cell deduplicated (singleflight). Built with a directory, the
// cache also persists each completed cell to disk, so a restarted
// process — a daemon coming back up, a CLI invoked again — serves warm
// cells without recomputation, byte-identical to the cold result.
//
// A cancelled run never reaches the cache, in memory or on disk, and a
// corrupt, torn or version-mismatched cache file is discarded with a
// warning and recomputed — a Cache can change performance, never
// results.
type Cache struct {
	impl *servecache.Cache
}

// CacheStats counts cache outcomes since construction.
type CacheStats struct {
	// Computes is how many cells were actually simulated.
	Computes int `json:"computes"`
	// MemoryHits served from the in-process memo, DiskHits from a
	// persisted file.
	MemoryHits int `json:"memory_hits"`
	DiskHits   int `json:"disk_hits"`
	// DedupWaits piggybacked on another caller's in-flight computation.
	DedupWaits int `json:"dedup_waits"`
	// Discards counts bad cache files thrown away (warned, recomputed).
	Discards int `json:"discards"`
	// MemoEvictions counts completed memo entries dropped to keep the memo
	// under its entry cap (see CacheLimits); DiskEvictions counts persisted
	// files removed to keep the cache directory under its byte cap.
	MemoEvictions int `json:"memo_evictions"`
	DiskEvictions int `json:"disk_evictions"`
	// Entries is the current in-memory memo size.
	Entries int `json:"entries"`
}

// CacheLimits bounds a shared cache's state so a long-lived process
// cannot grow without bound: one cap on the in-memory memo, one on the
// disk directory. The zero value disables all eviction. A cached result
// is a pure function of its cell, so entries never expire by age; only
// the caps evict. Eviction only ever touches completed entries —
// in-flight computations and their waiters are untouched — and an
// evicted entry that was persisted reloads from disk on next use, so
// limits change performance, never results.
type CacheLimits struct {
	// MaxEntries caps the in-memory memo; beyond it the least-recently-
	// used completed entries are evicted. 0 ⇒ unbounded.
	MaxEntries int
	// MaxDiskBytes caps the persistence directory; beyond it the oldest
	// files are removed. 0 ⇒ unbounded.
	MaxDiskBytes int64
}

// SetLimits installs (or replaces) the cache's state bounds and applies
// them at once, returning how many entries/files were evicted. After
// that the cache keeps itself within them, evicting as each new entry
// completes. Safe to call at any point in the cache's life, concurrently
// with use.
func (c *Cache) SetLimits(l CacheLimits) int { return c.impl.SetLimits(servecache.Limits(l)) }

// NewCache returns a shared result cache. dir == "" keeps it memory-only
// (cross-session sharing and deduplication without persistence);
// otherwise completed cells are persisted under dir, which is created if
// missing. warn receives non-fatal cache problems (nil ⇒ the standard
// logger).
func NewCache(dir string, warn func(format string, args ...any)) (*Cache, error) {
	impl, err := servecache.New(dir, warn)
	if err != nil {
		return nil, err
	}
	return &Cache{impl: impl}, nil
}

// Dir returns the persistence directory ("" when memory-only).
func (c *Cache) Dir() string { return c.impl.Dir() }

// Reset drops every completed entry from the in-memory memo and returns
// how many were dropped. In-flight computations finish undisturbed, and
// persisted disk files are untouched — a dropped entry that was written
// through reloads from disk on next use instead of recomputing. Use it
// to bound a long-lived daemon's memory (see onesd's DELETE /v1/cache).
func (c *Cache) Reset() int { return c.impl.Reset() }

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	s := c.impl.Stats()
	return CacheStats{
		Computes:      s.Computes,
		MemoryHits:    s.MemoryHits,
		DiskHits:      s.DiskHits,
		DedupWaits:    s.DedupWaits,
		Discards:      s.Discards,
		MemoEvictions: s.MemoEvictions,
		DiskEvictions: s.DiskEvictions,
		Entries:       s.Entries,
	}
}

// Instrument registers the cache's out-of-band telemetry with m and
// starts recording: hits by source, computes, singleflight dedupes, disk
// writes, corrupt-file discards, plus live gauges for the memo size and
// bytes on disk. Sessions built with both WithCache and WithMetrics call
// this automatically; call it directly when the cache is used without a
// Session (onesd does, so cache series exist before the first run).
// Instrumenting again against the same Metrics does nothing. Safe on a
// nil Metrics; telemetry never changes what the cache returns.
func (c *Cache) Instrument(m *Metrics) {
	if m == nil {
		return
	}
	c.impl.Instrument(m.reg)
}

// WithCache plugs a shared (and optionally persistent) result cache into
// the Session in place of its private in-memory one. Sessions sharing
// one Cache share results: a cell any of them has computed — in this
// process or, with persistence, a previous one — is recalled instead of
// resimulated. A cache hit emits no cell progress events (it executes
// nothing) but counts toward the batch's Done like any resolved cell.
func WithCache(c *Cache) Option {
	return func(s *settings) {
		s.cache = c
	}
}
