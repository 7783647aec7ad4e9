// Package servecache is the cross-session simulation-result cache
// behind cmd/onesd and ones.WithCache: one Cache is shared by every
// Session (each with its own engine.Runner) in a process, deduplicates
// concurrent computations of the same cell (singleflight), memoizes
// completed results in memory, and — when given a directory — writes
// each result through to disk so daemon restarts and repeated CLI
// invocations skip warm work.
//
// Disk layout: one file per cell, <dir>/<sha256(key)>.cell, holding one
// binary record: the magic "ONESCELL", the format Version as a uvarint,
// the key (uvarint length, then its bytes; stored in full so a hash
// collision is caught), the fields of simulator.Result in declaration
// order, and a CRC-32C (Castagnoli) of everything before it. Strings are
// a uvarint length and their bytes, ints zig-zag varints, a bool one
// byte (0 or 1), a float64 the 8 little-endian bytes of its IEEE 754
// bits, and a slice a uvarint count (0 for nil, n+1 for n elements)
// followed by each element's fields in declaration order.
//
// The decoder checks the magic and the checksum first, then the version
// and the key, and every length and count against the bytes left before
// it allocates. A file that fails to read or any of these checks is
// discarded with a warning and recomputed: never trusted, never fatal.
// Writes go through a temp file + rename so a crash mid-write leaves no
// torn entry. New removes, once, the files a cache wrote but can never
// read: version-1 JSON envelopes (<sha256(key)>.json) and temp files
// left by a crash between write and rename.
//
// Determinism contract: a Result loaded from disk is deeply equal, and
// byte-identical under encoding/json, to the freshly computed Result it
// was stored from. Every float is stored as its exact bits and nil and
// empty slices stay distinct, so storing and loading is the identity;
// the round-trip tests in this package and internal/engine pin that.
//
// A completed memo entry can also carry one byte slice derived from its
// Result (see Attached): onesd keeps the public JSON of a cache-served
// cell there, so each entry is encoded once however often it is served.
// The bytes live and die with the entry and are never persisted.
package servecache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simulator"
)

// Version is the on-disk record format version. Bump it whenever the
// record layout or the simulator's result semantics change: old files
// are then discarded (and recomputed) instead of serving stale physics.
const Version = 2

// recordExt names the files holding cell records; tempPrefix starts
// the temp files a write renames into place.
const (
	recordExt  = ".cell"
	tempPrefix = ".tmp-"
)

// Stats counts cache outcomes since construction.
type Stats struct {
	// Computes is how many results were actually simulated.
	Computes int
	// MemoryHits served from the in-process memo.
	MemoryHits int
	// DiskHits served by loading a persisted file.
	DiskHits int
	// DedupWaits are calls that piggybacked on another caller's in-flight
	// computation of the same key instead of starting their own.
	DedupWaits int
	// Discards counts corrupt, unreadable or version-mismatched files
	// thrown away (each triggered a warning and a recompute), plus the
	// unreadable leftovers New removed.
	Discards int
	// MemoEvictions counts completed memo entries dropped to keep the memo
	// under its entry cap (least recently used first — see Limits).
	MemoEvictions int
	// DiskEvictions counts persisted files removed to keep the cache
	// directory under its byte cap (oldest files first).
	DiskEvictions int
	// Entries is the current in-memory memo size.
	Entries int
}

// Limits bounds the cache's state so a long-lived daemon cannot grow
// without bound: one cap on the memo, one on the disk directory. Each
// field is optional; the zero value disables all eviction. Every result
// is a pure function of its key, so an entry never goes stale and only
// the caps evict. Eviction follows the Reset
// contract exactly: only completed entries are dropped — an in-flight
// singleflight computation and its waiters are never touched — and a
// dropped entry that was persisted reloads from disk on next use, so
// limits change performance, never results.
type Limits struct {
	// MaxEntries caps the in-memory memo: when exceeded, the least-
	// recently-used completed entries are evicted until the memo fits
	// (in-flight entries don't count as evictable and can push the memo
	// transiently over the cap). 0 ⇒ unbounded.
	MaxEntries int
	// MaxDiskBytes caps the persistence directory: after each write-
	// through the oldest files are removed until the total fits. 0 ⇒
	// unbounded. The in-memory memo still holds evicted cells until its
	// own cap drops them.
	MaxDiskBytes int64
}

// Cache is a singleflight, in-memory result memo with optional disk
// write-through: every engine.Runner memoizes its cells in one (a
// private memory-only Cache unless a shared one is plugged in). Safe
// for concurrent use by any number of runners.
type Cache struct {
	dir  string // "" ⇒ memory only
	warn func(format string, args ...any)

	mu      sync.Mutex
	entries map[string]*entry
	// recent holds the completed entries of the memo, most recently used
	// at the front; the cap sweep evicts from the back. In-flight entries
	// join it only once they complete, so they are never evicted.
	recent list.List
	stats  Stats
	limits Limits

	obsP atomic.Pointer[cacheObs]
}

// cacheObs holds the cache's instrument handles (see Instrument). The
// zero value — every counter nil — is a valid no-op set, which is what
// an uninstrumented cache records against.
type cacheObs struct {
	reg        *obs.Registry // the registry the handles live in
	memoryHits *obs.Counter
	diskHits   *obs.Counter
	computes   *obs.Counter
	dedupWaits *obs.Counter
	diskWrites *obs.Counter
	discards   *obs.Counter
	// Bounded-state sweep outcomes (cache_evictions_total{store,reason}).
	memoCapEvicts *obs.Counter
	diskCapEvicts *obs.Counter
}

var noCacheObs cacheObs

// oh returns the instrument handles (a shared all-nil set when the cache
// is uninstrumented, so call sites never branch).
func (c *Cache) oh() *cacheObs {
	if o := c.obsP.Load(); o != nil {
		return o
	}
	return &noCacheObs
}

// Instrument registers the cache's out-of-band telemetry with reg and
// starts recording: hits by source, computes, singleflight dedupes, disk
// writes, corrupt-file discards, plus live gauges for the in-memory memo
// size and bytes persisted on disk. Telemetry never affects what Do
// returns. A cache already instrumented against reg returns at once, so
// callers may instrument it on every use. Safe on a nil Cache or
// registry; safe to call concurrently with Do (counters recorded before
// the call are simply not counted).
func (c *Cache) Instrument(reg *obs.Registry) {
	if c == nil || reg == nil || c.oh().reg == reg {
		return
	}
	hits := reg.CounterVec("servecache_hits_total", "Cache hits by source (memory: in-process memo; disk: persisted file).", "source")
	evictions := reg.CounterVec("cache_evictions_total", "Entries evicted from the daemon's bounded stores, by store and reason.", "store", "reason")
	c.obsP.Store(&cacheObs{
		reg:           reg,
		memoryHits:    hits.With("memory"),
		diskHits:      hits.With("disk"),
		computes:      reg.Counter("servecache_computes_total", "Cache misses that ran a full simulation."),
		dedupWaits:    reg.Counter("servecache_dedup_waits_total", "Calls that piggybacked on another caller's in-flight computation."),
		diskWrites:    reg.Counter("servecache_disk_writes_total", "Results written through to the persistence directory."),
		discards:      reg.Counter("servecache_discards_total", "Corrupt, unreadable or version-mismatched cache files discarded."),
		memoCapEvicts: evictions.With("memo", "cap"),
		diskCapEvicts: evictions.With("disk", "cap"),
	})
	reg.GaugeFunc("servecache_entries", "Entries in the in-memory result memo.", func() float64 {
		c.mu.Lock()
		n := len(c.entries)
		c.mu.Unlock()
		return float64(n)
	})
	reg.GaugeFunc("servecache_disk_bytes", "Total size of persisted result files, in bytes.", func() float64 {
		return float64(c.diskBytes())
	})
}

// diskBytes sums the sizes of the persisted result files (0 when
// memory-only or unreadable). Scanned at scrape time: writes rename into
// place atomically, so the walk never sees torn entries.
func (c *Cache) diskBytes() int64 {
	if c.dir == "" {
		return 0
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, de := range des {
		if de.IsDir() || filepath.Ext(de.Name()) != recordExt {
			continue
		}
		if info, err := de.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// entry is a singleflight slot: the goroutine that inserts it resolves
// it (from disk or by computing) and closes done; everyone else waits on
// done or their own context.
type entry struct {
	key  string
	done chan struct{}
	res  *simulator.Result
	err  error

	// elem is the entry's place in Cache.recent, set under Cache.mu when
	// the entry completes. Only completed entries are evictable (the
	// singleflight contract: waiters hold the entry pointer and must see
	// it resolve).
	elem *list.Element
	// attached is the byte slice derived from res (see Attached): set at
	// most once, under Cache.mu, and never written after.
	attached []byte
}

// New returns a Cache persisting to dir ("" ⇒ shared memory only, no
// persistence). The directory is created if missing, and the files in
// it that no cache of this version can read are removed. warn receives
// non-fatal cache problems (corrupt files, failed writes); nil ⇒
// log.Printf.
func New(dir string, warn func(format string, args ...any)) (*Cache, error) {
	if warn == nil {
		warn = log.Printf
	}
	c := &Cache{dir: dir, warn: warn, entries: make(map[string]*entry)}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("servecache: create %s: %w", dir, err)
		}
		c.removeUnreadable()
	}
	return c, nil
}

// removeUnreadable deletes the files in the cache directory that this
// cache wrote but can never read: version-1 records and temp files a
// crash left between write and rename. Neither counts toward
// MaxDiskBytes or is ever swept, so without this they would leak disk.
// They count as Discards, with one warning for them all. A writer in
// another process sharing the directory loses only its current write:
// its rename fails and warns, and its memo keeps the result.
func (c *Cache) removeUnreadable() {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		c.warn("servecache: scan %s: %v", c.dir, err)
		return
	}
	removed := 0
	for _, de := range des {
		if de.IsDir() || !unreadable(de.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(c.dir, de.Name())); err != nil {
			if !os.IsNotExist(err) {
				c.warn("servecache: remove %s: %v", de.Name(), err)
			}
			continue
		}
		removed++
	}
	if removed > 0 {
		c.count(func(s *Stats) { s.Discards += removed })
		c.warn("servecache: removed %d unreadable files (version-1 records or interrupted writes) from %s", removed, c.dir)
	}
}

// unreadable reports whether name is a version-1 record
// (<sha256(key)>.json) or a temp file of an interrupted write.
func unreadable(name string) bool {
	if strings.HasPrefix(name, tempPrefix) {
		return true
	}
	hash, ok := strings.CutSuffix(name, ".json")
	if !ok || len(hash) != 2*sha256.Size {
		return false
	}
	for _, r := range hash {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// Dir returns the persistence directory ("" when memory-only).
func (c *Cache) Dir() string { return c.dir }

// SetLimits installs (or replaces) the cache's state bounds and applies
// them at once, returning how many entries/files that evicted. Safe to
// call concurrently with Do at any point in the cache's life.
func (c *Cache) SetLimits(l Limits) int {
	c.mu.Lock()
	c.limits = l
	evicted := c.sweepMemoLocked()
	c.mu.Unlock()
	return evicted + c.sweepDisk()
}

// sweepMemoLocked evicts the least-recently-used completed entries while
// the memo exceeds MaxEntries, each in O(1) from the back of c.recent.
// In-flight entries are never touched (Reset semantics), so the memo can
// transiently exceed the cap while every excess entry is still computing.
func (c *Cache) sweepMemoLocked() int {
	limit := c.limits.MaxEntries
	if limit <= 0 {
		return 0
	}
	oh := c.oh()
	evicted := 0
	for len(c.entries) > limit && c.recent.Len() > 0 {
		e := c.recent.Remove(c.recent.Back()).(*entry)
		delete(c.entries, e.key)
		c.stats.MemoEvictions++
		oh.memoCapEvicts.Inc()
		evicted++
	}
	return evicted
}

// sweepDisk removes the oldest persisted files until the directory fits
// MaxDiskBytes. Writes rename into place atomically, so the scan never
// sees torn entries; a file that disappears mid-sweep is simply skipped.
func (c *Cache) sweepDisk() int {
	c.mu.Lock()
	capBytes := c.limits.MaxDiskBytes
	c.mu.Unlock()
	if c.dir == "" || capBytes <= 0 {
		return 0
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	type file struct {
		name string
		size int64
		mod  time.Time
	}
	var files []file
	var total int64
	for _, de := range des {
		if de.IsDir() || filepath.Ext(de.Name()) != recordExt {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, file{de.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= capBytes {
		return 0
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod) // oldest (least recently touched) first
		}
		return files[i].name < files[j].name
	})
	oh := c.oh()
	evicted := 0
	for _, f := range files {
		if total <= capBytes {
			break
		}
		if err := os.Remove(filepath.Join(c.dir, f.name)); err != nil {
			if !os.IsNotExist(err) {
				c.warn("servecache: evict %s: %v", f.name, err)
				continue
			}
		}
		total -= f.size
		c.count(func(s *Stats) { s.DiskEvictions++ })
		oh.diskCapEvicts.Inc()
		evicted++
	}
	return evicted
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// Reset drops every completed entry from the in-memory memo and returns
// how many were dropped — the admin pressure valve for long-lived
// daemons whose memo would otherwise grow without bound. In-flight
// computations are left in place: their waiters hold the entry pointer
// and the singleflight contract must not be broken mid-compute (they
// re-enter the memo when they finish, and a later Reset can drop them).
// Persisted disk files are untouched; dropped entries that were written
// through reload from disk on next use instead of recomputing.
func (c *Cache) Reset() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := c.recent.Len()
	for el := c.recent.Front(); el != nil; el = el.Next() {
		delete(c.entries, el.Value.(*entry).key)
	}
	c.recent.Init()
	return dropped
}

// Attached returns the byte slice attached to key's memo entry, building
// it at most once per entry: while the entry has completed holding res,
// the first call runs build, outside the cache's lock, and attaches what
// it returns (unless it is nil), and every later call returns those same
// bytes. When key's entry is gone, still in flight or holding another
// result, build's bytes come back unattached, so bytes derived from an
// evicted result never reach the entry that replaced it. The bytes are
// shared by every caller and must not be modified. They leave the memo
// with their entry (a cap eviction or Reset), and an entry loaded from
// disk starts without them. Attached is not a use: it moves no entry in
// the LRU order and counts nothing.
func (c *Cache) Attached(key string, res *simulator.Result, build func() []byte) []byte {
	c.mu.Lock()
	if e := c.holdingLocked(key, res); e != nil && e.attached != nil {
		c.mu.Unlock()
		return e.attached
	}
	c.mu.Unlock()
	b := build()
	if b == nil {
		return nil
	}
	b = b[:len(b):len(b)] // an append by any holder copies
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.holdingLocked(key, res)
	if e == nil {
		return b
	}
	if e.attached == nil {
		e.attached = b
	}
	return e.attached
}

// holdingLocked returns key's memo entry if it has completed holding res.
// res is read only once elem is set: both are written before the entry
// completes under c.mu.
func (c *Cache) holdingLocked(key string, res *simulator.Result) *entry {
	if e, ok := c.entries[key]; ok && e.elem != nil && e.res == res {
		return e
	}
	return nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Do returns the result for key — from the in-memory memo, from disk, or
// by calling compute — deduplicating concurrent callers of the same key.
// A caller whose ctx ends stops waiting immediately. A compute that
// returns a context error is not cached (in memory or on disk): the next
// caller with a live context recomputes, so cancelled runs can never
// poison the cache. This is the only singleflight in front of the
// simulator: engine.Runner.Result runs every cell through it.
func (c *Cache) Do(ctx context.Context, key string, compute func() (*simulator.Result, error)) (*simulator.Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &entry{key: key, done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			c.resolve(e, compute)
			c.mu.Lock()
			if e.err != nil && isCtxErr(e.err) {
				delete(c.entries, key)
			} else {
				// Only an insert grows the memo or the disk dir, and only
				// a completed entry is evictable, so sweeping here keeps
				// both within their caps. Closing done under c.mu keeps
				// every completed entry of the memo in c.recent.
				e.elem = c.recent.PushFront(e)
				c.sweepMemoLocked()
			}
			close(e.done)
			c.mu.Unlock()
			c.sweepDisk()
		} else {
			oh := c.oh()
			select {
			case <-e.done:
				c.stats.MemoryHits++
				oh.memoryHits.Inc()
				c.recent.MoveToFront(e.elem)
			default:
				c.stats.DedupWaits++
				oh.dedupWaits.Inc()
			}
			c.mu.Unlock()
		}
		select {
		case <-e.done:
			if e.err != nil {
				if isCtxErr(e.err) && ctx.Err() == nil {
					// The computing goroutine was cancelled but we are
					// alive: its entry is gone, claim a fresh one.
					continue
				}
				return nil, e.err
			}
			return e.res, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// resolve fills the entry: disk first, compute on miss, write-through on
// success.
func (c *Cache) resolve(e *entry, compute func() (*simulator.Result, error)) {
	if res, ok := c.load(e.key); ok {
		e.res = res
		c.count(func(s *Stats) { s.DiskHits++ })
		c.oh().diskHits.Inc()
		return
	}
	e.res, e.err = compute()
	if e.err != nil {
		return
	}
	c.count(func(s *Stats) { s.Computes++ })
	c.oh().computes.Inc()
	c.store(e.key, e.res)
}

func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// path maps a key to its cache file.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+recordExt)
}

// load reads a persisted result, discarding (with a warning) anything
// unreadable, corrupt, version-mismatched or keyed differently.
func (c *Cache) load(key string) (*simulator.Result, bool) {
	if c.dir == "" {
		return nil, false
	}
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.discard(path, fmt.Sprintf("unreadable: %v", err))
		}
		return nil, false
	}
	res, err := decodeCell(data, key)
	if err != nil {
		c.discard(path, err.Error())
		return nil, false
	}
	// Under a disk cap, touch the file so the byte-cap sweep (oldest
	// mtime first) approximates LRU instead of FIFO; nothing else reads
	// mtimes. Best effort: a failed touch only degrades eviction order.
	c.mu.Lock()
	capped := c.limits.MaxDiskBytes > 0
	c.mu.Unlock()
	if capped {
		now := time.Now()
		_ = os.Chtimes(path, now, now)
	}
	return res, true
}

// discard warns about and removes a bad cache file; the caller recomputes.
func (c *Cache) discard(path, reason string) {
	c.count(func(s *Stats) { s.Discards++ })
	c.oh().discards.Inc()
	c.warn("servecache: discarding %s: %s", filepath.Base(path), reason)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		c.warn("servecache: remove %s: %v", filepath.Base(path), err)
	}
}

// store writes a result through to disk (temp file + rename, so readers
// and crashes never see a torn entry). Failures warn and continue: the
// in-memory memo still has the result.
func (c *Cache) store(key string, res *simulator.Result) {
	if c.dir == "" {
		return
	}
	path := c.path(key)
	tmp, err := os.CreateTemp(c.dir, tempPrefix+"*")
	if err != nil {
		c.warn("servecache: temp file: %v", err)
		return
	}
	if _, err := tmp.Write(encodeCell(key, res)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.warn("servecache: write %s: %v", filepath.Base(path), err)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		c.warn("servecache: close %s: %v", filepath.Base(path), err)
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		c.warn("servecache: rename %s: %v", filepath.Base(path), err)
		return
	}
	c.oh().diskWrites.Inc()
}
