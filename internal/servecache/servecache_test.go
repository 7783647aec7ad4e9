package servecache

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/schedulers"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// simulate runs one small real simulation so round-trip tests face the
// genuine Result shape (floats, metrics, optional event log) rather than
// a hand-built fixture. With recordEvents the run also faces an elastic
// capacity timeline, so the optional Result fields (Evictions,
// CapacityEvents, Events) are exercised, not left at zero.
func simulate(t testing.TB, sched string, recordEvents bool) *simulator.Result {
	t.Helper()
	trace, err := workload.Generate(workload.Config{Seed: 3, NumJobs: 8, MeanInterarrival: 25, MaxReqGPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedulers.New(sched, schedulers.Config{Seed: 11, ArrivalRate: 1.0 / 25, Population: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulator.DefaultConfig(trace)
	cfg.Topo = cluster.Uniform(4, 4)
	cfg.RecordEvents = recordEvents
	if recordEvents {
		cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
			{Time: 40, Kind: scenario.CapacityFail, Servers: 1, Pick: 0.3},
			{Time: 400, Kind: scenario.CapacityJoin, Servers: 1, Restocks: scenario.CapacityFail},
		})
	}
	res, err := simulator.Run(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := New(dir, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDoComputesOnceAndMemoizes(t *testing.T) {
	c := mustCache(t, "")
	computes := 0
	want := simulate(t, "fifo", false)
	for i := 0; i < 3; i++ {
		got, err := c.Do(context.Background(), "k", func() (*simulator.Result, error) {
			computes++
			return want, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatal("memo returned a different pointer than the computed result")
		}
	}
	if computes != 1 {
		t.Errorf("computed %d times, want 1", computes)
	}
	st := c.Stats()
	if st.Computes != 1 || st.MemoryHits != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 compute, 2 memory hits, 1 entry", st)
	}
}

func TestDoSingleflightConcurrent(t *testing.T) {
	c := mustCache(t, "")
	var mu sync.Mutex
	computes := 0
	gate := make(chan struct{})
	res := simulate(t, "fifo", false)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Do(context.Background(), "k", func() (*simulator.Result, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-gate // hold the flight open so every caller overlaps it
				return res, nil
			})
			if err != nil || got != res {
				t.Errorf("Do = %v, %v", got, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Errorf("%d concurrent computations of one key, want 1 (singleflight)", computes)
	}
}

// TestDiskRoundTripByteIdentical is the persistence determinism
// contract: a Result served from disk must be byte-identical (under
// encoding/json) and deeply equal to the freshly computed one, for every
// scheduler shape — including an elastic-scenario run with evictions,
// capacity events and the full event log.
func TestDiskRoundTripByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sched  string
		events bool
	}{
		{"fifo", "fifo", false},
		{"ones-with-events", "ones", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fresh := simulate(t, tc.sched, tc.events)
			c1 := mustCache(t, dir)
			if _, err := c1.Do(context.Background(), "cell", func() (*simulator.Result, error) { return fresh, nil }); err != nil {
				t.Fatal(err)
			}
			// A brand-new cache over the same dir simulates a process
			// restart: the compute func must never fire.
			c2 := mustCache(t, dir)
			loaded, err := c2.Do(context.Background(), "cell", func() (*simulator.Result, error) {
				t.Fatal("recomputed despite a warm disk cache")
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if c2.Stats().DiskHits != 1 {
				t.Errorf("stats = %+v, want 1 disk hit", c2.Stats())
			}
			if !reflect.DeepEqual(fresh, loaded) {
				t.Error("loaded result differs structurally from the fresh one")
			}
			fb, err := json.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := json.Marshal(loaded)
			if err != nil {
				t.Fatal(err)
			}
			if string(fb) != string(lb) {
				t.Error("loaded result is not byte-identical to the fresh one")
			}
			if tc.events && (fresh.Evictions == 0 || len(fresh.Events) == 0) {
				// Guard the test's own coverage: the elastic case must
				// actually exercise the optional fields.
				t.Logf("note: run had %d evictions, %d events", fresh.Evictions, len(fresh.Events))
			}
		})
	}
}

// cacheFile returns the single cache file under dir.
func cacheFile(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("cache dir holds %d files, want 1", len(ents))
	}
	return filepath.Join(dir, ents[0].Name())
}

func TestCorruptFileDiscardedWithWarning(t *testing.T) {
	dir := t.TempDir()
	res := simulate(t, "fifo", false)
	c1 := mustCache(t, dir)
	if _, err := c1.Do(context.Background(), "k", func() (*simulator.Result, error) { return res, nil }); err != nil {
		t.Fatal(err)
	}
	path := cacheFile(t, dir)
	if err := os.WriteFile(path, []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	c2, err := New(dir, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	recomputed := false
	got, err := c2.Do(context.Background(), "k", func() (*simulator.Result, error) {
		recomputed = true
		return res, nil
	})
	if err != nil || got == nil {
		t.Fatalf("Do over corrupt file: %v, %v", got, err)
	}
	if !recomputed {
		t.Error("corrupt file served instead of recomputing")
	}
	if len(warnings) == 0 {
		t.Error("corrupt file discarded silently, want a warning")
	}
	if c2.Stats().Discards != 1 {
		t.Errorf("stats = %+v, want 1 discard", c2.Stats())
	}
	// The recompute rewrites the entry: the file must decode to the same
	// result again.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("recomputed entry not rewritten: %v", err)
	}
	if back, err := decodeCell(data, "k"); err != nil {
		t.Errorf("rewritten entry does not decode: %v", err)
	} else if !reflect.DeepEqual(back, res) {
		t.Error("rewritten entry decodes to a different result")
	}
}

func TestVersionMismatchDiscarded(t *testing.T) {
	dir := t.TempDir()
	res := simulate(t, "fifo", false)
	c1 := mustCache(t, dir)
	if _, err := c1.Do(context.Background(), "k", func() (*simulator.Result, error) { return res, nil }); err != nil {
		t.Fatal(err)
	}
	path := cacheFile(t, dir)
	// Re-encode the record at version 1 with a valid checksum, so the
	// version is its only defect.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(magic)] != Version {
		t.Fatalf("version byte = %d, want %d", data[len(magic)], Version)
	}
	data[len(magic)] = 1
	if err := os.WriteFile(path, reseal(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var warned bool
	want := fmt.Sprintf("format version 1, want %d", Version)
	c2, err := New(dir, func(format string, args ...any) {
		warned = strings.Contains(fmt.Sprintf(format, args...), want)
	})
	if err != nil {
		t.Fatal(err)
	}
	recomputed := false
	if _, err := c2.Do(context.Background(), "k", func() (*simulator.Result, error) {
		recomputed = true
		return res, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !recomputed || !warned {
		t.Errorf("version-mismatched file: recomputed=%t warned of the version=%t, want both", recomputed, warned)
	}
}

func TestKeyMismatchDiscarded(t *testing.T) {
	dir := t.TempDir()
	res := simulate(t, "fifo", false)
	c1 := mustCache(t, dir)
	if _, err := c1.Do(context.Background(), "k1", func() (*simulator.Result, error) { return res, nil }); err != nil {
		t.Fatal(err)
	}
	// Copy k1's file to where k2 would live — a (synthetic) collision.
	src := cacheFile(t, dir)
	c2 := mustCache(t, dir)
	dst := c2.path("k2")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recomputed := false
	if _, err := c2.Do(context.Background(), "k2", func() (*simulator.Result, error) {
		recomputed = true
		return res, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Error("a file keyed for another cell was served")
	}
}

func TestCancelledComputeNotCached(t *testing.T) {
	dir := t.TempDir()
	c := mustCache(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Do(ctx, "k", func() (*simulator.Result, error) {
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Computes != 0 {
		t.Errorf("stats = %+v after a cancelled compute, want nothing cached", st)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("%d files persisted by a cancelled compute, want 0", len(ents))
	}
	// A live retry must compute and cache normally.
	res := simulate(t, "fifo", false)
	if _, err := c.Do(context.Background(), "k", func() (*simulator.Result, error) { return res, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Computes != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v after the live retry, want 1 compute, 1 entry", st)
	}
}

// TestWaiterReclaimsAfterClaimerCancelled pins Do's re-claim branch —
// the onesd case where one of two identical runs is cancelled mid-cell:
// the cancelled claimer's entry is evicted, and the live waiter claims a
// fresh one and returns the result of its own single compute.
func TestWaiterReclaimsAfterClaimerCancelled(t *testing.T) {
	c := mustCache(t, "")
	res := simulate(t, "fifo", false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	claimerErr := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "k", func() (*simulator.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		claimerErr <- err
	}()
	<-started
	type outcome struct {
		res      *simulator.Result
		err      error
		computes int
	}
	waiter := make(chan outcome, 1)
	go func() {
		computes := 0
		got, err := c.Do(context.Background(), "k", func() (*simulator.Result, error) {
			computes++
			return res, nil
		})
		waiter <- outcome{got, err, computes}
	}()
	// Cancel the claimer only once the waiter is parked on its flight.
	for c.Stats().DedupWaits == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-claimerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("claimer err = %v, want context.Canceled", err)
	}
	w := <-waiter
	if w.err != nil || w.res != res {
		t.Fatalf("waiter got (%p, %v), want its own result %p", w.res, w.err, res)
	}
	if w.computes != 1 {
		t.Errorf("waiter computed %d times, want once after re-claiming", w.computes)
	}
	if st := c.Stats(); st.Computes != 1 || st.DedupWaits != 1 {
		t.Errorf("stats = %+v, want 1 compute and 1 dedup wait", st)
	}
}

func TestRealErrorStaysCached(t *testing.T) {
	c := mustCache(t, "")
	computes := 0
	fail := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := c.Do(context.Background(), "k", func() (*simulator.Result, error) {
			computes++
			return nil, fail
		}); !errors.Is(err, fail) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if computes != 1 {
		t.Errorf("a deterministic failure recomputed %d times, want it cached after 1", computes)
	}
}

func TestMemoryOnlyCacheWritesNothing(t *testing.T) {
	c := mustCache(t, "")
	res := simulate(t, "fifo", false)
	if _, err := c.Do(context.Background(), "k", func() (*simulator.Result, error) { return res, nil }); err != nil {
		t.Fatal(err)
	}
	if c.Dir() != "" {
		t.Errorf("Dir() = %q, want empty", c.Dir())
	}
}

func TestResetDropsCompletedEntries(t *testing.T) {
	dir := t.TempDir()
	c := mustCache(t, dir)
	res := simulate(t, "fifo", false)
	for _, key := range []string{"a", "b"} {
		if _, err := c.Do(context.Background(), key, func() (*simulator.Result, error) { return res, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Entries; got != 2 {
		t.Fatalf("entries before reset = %d, want 2", got)
	}
	if dropped := c.Reset(); dropped != 2 {
		t.Fatalf("Reset dropped %d, want 2", dropped)
	}
	if got := c.Stats().Entries; got != 0 {
		t.Fatalf("entries after reset = %d, want 0", got)
	}
	if dropped := c.Reset(); dropped != 0 {
		t.Fatalf("second Reset dropped %d, want 0", dropped)
	}
	// A dropped write-through entry reloads from disk, not recompute.
	if _, err := c.Do(context.Background(), "a", func() (*simulator.Result, error) {
		t.Fatal("recompute after reset despite disk entry")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1 (reload, not recompute)", st.DiskHits)
	}
}

func TestResetLeavesInFlightEntries(t *testing.T) {
	c := mustCache(t, "")
	res := simulate(t, "fifo", false)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "slow", func() (*simulator.Result, error) {
			close(started)
			<-release
			return res, nil
		})
	}()
	<-started
	if dropped := c.Reset(); dropped != 0 {
		t.Fatalf("Reset dropped an in-flight entry (%d)", dropped)
	}
	close(release)
	<-done
	if got := c.Stats().Entries; got != 1 {
		t.Fatalf("in-flight entry lost: entries = %d, want 1", got)
	}
}

// TestMemoEvictsLeastRecentlyUsed pins the memo's eviction order: a
// memory hit makes an entry the most recently used, so the entry left
// untouched longest is evicted first.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	c := mustCache(t, "")
	c.SetLimits(Limits{MaxEntries: 2})
	res := simulate(t, "fifo", false)
	computed := map[string]int{}
	do := func(key string) {
		t.Helper()
		if _, err := c.Do(context.Background(), key, func() (*simulator.Result, error) {
			computed[key]++
			return res, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"a", "b", "a", "c"} {
		do(key)
	}
	if st := c.Stats(); st.MemoEvictions != 1 || st.Entries != 2 || st.MemoryHits != 1 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries, 1 memory hit", st)
	}
	do("a")
	do("c")
	if st := c.Stats(); st.MemoryHits != 3 || st.MemoEvictions != 1 {
		t.Fatalf("stats = %+v: a and c must be memory hits", st)
	}
	do("b")
	if computed["b"] != 2 || computed["a"] != 1 || computed["c"] != 1 {
		t.Fatalf("computes per key = %v, want b evicted and recomputed, a and c once", computed)
	}
}

// TestDiskHitTouchesOnlyUnderCap: a disk hit refreshes the file's mtime
// only when a disk cap is set, since only the byte-cap sweep reads
// mtimes; under a cap that refresh makes the sweep evict the least
// recently used record rather than the oldest written.
func TestDiskHitTouchesOnlyUnderCap(t *testing.T) {
	res := simulate(t, "fifo", false)
	compute := func() (*simulator.Result, error) { return res, nil }
	do := func(c *Cache, key string) {
		t.Helper()
		if _, err := c.Do(context.Background(), key, compute); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	setMtime := func(path string, mt time.Time) {
		t.Helper()
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("uncapped", func(t *testing.T) {
		dir := t.TempDir()
		do(mustCache(t, dir), "a")
		path := cacheFile(t, dir)
		setMtime(path, old)
		c := mustCache(t, dir)
		do(c, "a")
		if st := c.Stats(); st.DiskHits != 1 {
			t.Fatalf("stats = %+v, want one disk hit", st)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !info.ModTime().Equal(old) {
			t.Errorf("uncapped disk hit moved the mtime from %v to %v", old, info.ModTime())
		}
	})

	t.Run("capped", func(t *testing.T) {
		dir := t.TempDir()
		w := mustCache(t, dir)
		do(w, "a")
		do(w, "b")
		info, err := os.Stat(w.path("a"))
		if err != nil {
			t.Fatal(err)
		}
		setMtime(w.path("a"), old)
		setMtime(w.path("b"), old.Add(time.Hour))
		// The cap fits two records. A disk hit makes a the most recently
		// used, so the sweep after inserting c evicts b, though a was
		// written first.
		c := mustCache(t, dir)
		c.SetLimits(Limits{MaxDiskBytes: 2 * info.Size()})
		do(c, "a")
		do(c, "c")
		if st := c.Stats(); st.DiskHits != 1 || st.DiskEvictions != 1 {
			t.Fatalf("stats = %+v, want one disk hit and one eviction", st)
		}
		for key, want := range map[string]bool{"a": true, "b": false, "c": true} {
			if _, err := os.Stat(c.path(key)); (err == nil) != want {
				t.Errorf("record %q present = %v, want %v", key, err == nil, want)
			}
		}
	})
}

// TestMemoCapConcurrent drives a capped memo from several goroutines, so
// memory hits move entries in the recency list while inserts evict from
// it. Every call is counted once, the memo ends within its cap, and the
// recency list holds exactly the memo's entries.
func TestMemoCapConcurrent(t *testing.T) {
	const workers, calls, limit = 4, 500, 8
	c := mustCache(t, "")
	c.SetLimits(Limits{MaxEntries: limit})
	res := &simulator.Result{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < calls; i++ {
				key := strconv.Itoa(rng.Intn(3 * limit))
				if _, err := c.Do(context.Background(), key, func() (*simulator.Result, error) { return res, nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Computes+st.MemoryHits+st.DedupWaits != workers*calls {
		t.Errorf("stats = %+v do not add up to %d calls", st, workers*calls)
	}
	if st.Entries > limit || st.MemoEvictions == 0 || st.MemoryHits == 0 {
		t.Errorf("stats = %+v, want at most %d entries, evictions and memory hits", st, limit)
	}
	c.mu.Lock()
	listed := c.recent.Len()
	c.mu.Unlock()
	if listed != st.Entries {
		t.Errorf("recency list holds %d entries, memo %d", listed, st.Entries)
	}
}

// TestNewRemovesUnreadableFiles: version-1 records and temp files left
// by an interrupted write are never read, swept or counted toward
// MaxDiskBytes, so New removes them once, counts them as discards and
// warns once. Every other file stays.
func TestNewRemovesUnreadableFiles(t *testing.T) {
	dir := t.TempDir()
	v1 := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef.json"
	kept := []string{"notes.txt", "config.json", "0123456789abcdef.json",
		"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef.cell"}
	for _, name := range append([]string{v1, ".tmp-x"}, kept...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var warnings []string
	c, err := New(dir, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{v1, ".tmp-x"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived New (stat: %v)", name, err)
		}
	}
	for _, name := range kept {
		if data, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(data) != "{}" {
			t.Errorf("New touched %s: %q, %v", name, data, err)
		}
	}
	if st := c.Stats(); st.Discards != 2 {
		t.Errorf("stats = %+v, want 2 discards", st)
	}
	if len(warnings) != 1 {
		t.Errorf("warnings = %q, want one", warnings)
	}
}

// TestInstrumentOncePerRegistry: instrumenting a cache again against the
// registry it already records to allocates nothing, and every count
// keeps landing in the same series.
func TestInstrumentOncePerRegistry(t *testing.T) {
	c := mustCache(t, "")
	reg := obs.NewRegistry()
	c.Instrument(reg)
	if allocs := testing.AllocsPerRun(20, func() { c.Instrument(reg) }); allocs != 0 {
		t.Errorf("instrumenting again allocated %v objects per call, want 0", allocs)
	}
	ctx := context.Background()
	for range 3 {
		if _, err := c.Do(ctx, "k", func() (*simulator.Result, error) { return &simulator.Result{}, nil }); err != nil {
			t.Fatal(err)
		}
		c.Instrument(reg)
	}
	if computes, hits := reg.CounterValue("servecache_computes_total"), reg.CounterValue("servecache_hits_total", "memory"); computes != 1 || hits != 2 {
		t.Errorf("registry counts %d computes and %d memory hits, want 1 and 2", computes, hits)
	}
	if got := reg.GaugeValue("servecache_entries"); got != 1 {
		t.Errorf("servecache_entries = %v, want 1", got)
	}
}
