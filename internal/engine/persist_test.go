package engine

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/servecache"
	"repro/internal/simulator"
)

func persistCells() []Cell {
	// Mix of plain, elastic-scenario and mixed-shape cells so the round
	// trip covers Evictions/CapacityEvents/RackDrainEvictions, not just
	// the steady-state fields.
	return []Cell{
		{Scheduler: "ones", Capacity: 16},
		{Scheduler: "fifo", Capacity: 16},
		{Scheduler: "tiresias", Capacity: 32, Scenario: "node-failure"},
		{Scheduler: "fifo", Shape: "2x4,1x8", Scenario: "rack-drain"},
	}
}

// TestRunnerPersistWarmRestart is the tentpole's persistence contract:
// a second runner over the same cache directory — a restarted daemon, a
// re-invoked CLI — serves every cell without executing a single
// simulation, and each served result is byte-identical to the cold one.
func TestRunnerPersistWarmRestart(t *testing.T) {
	dir := t.TempDir()
	p := testParams(2)
	p.RecordEvents = true
	cells := persistCells()

	newPersistRunner := func() *Runner {
		c, err := servecache.New(dir, func(string, ...any) {})
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(p)
		r.Cache = c
		return r
	}

	r1 := newPersistRunner()
	cold, err := r1.Results(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}

	r2 := newPersistRunner()
	var mu sync.Mutex
	ran := 0
	r2.OnCell = func(Cell, *simulator.Result, time.Duration) {
		mu.Lock()
		ran++
		mu.Unlock()
	}
	warm, err := r2.Results(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Errorf("%d cells simulated on a warm restart, want 0", ran)
	}
	for i := range cells {
		if !reflect.DeepEqual(cold[i], warm[i]) {
			t.Errorf("cell %s: warm result differs structurally from cold", cells[i])
			continue
		}
		cb, err := json.Marshal(cold[i])
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(warm[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(cb) != string(wb) {
			t.Errorf("cell %s: warm result not byte-identical to cold", cells[i])
		}
	}
	// The scenario cell must actually have exercised the elastic fields.
	if idx := 2; cold[idx].CapacityEvents == 0 {
		t.Error("node-failure cell saw no capacity events; round trip untested on elastic fields")
	}
}

// TestRunnerPersistMatchesUnpersisted: plugging a cache in changes
// performance, never results.
func TestRunnerPersistMatchesUnpersisted(t *testing.T) {
	p := testParams(2)
	cells := persistCells()
	plain, err := NewRunner(p).Results(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	c, err := servecache.New(t.TempDir(), func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(p)
	r.Cache = c
	cached, err := r.Results(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !reflect.DeepEqual(plain[i], cached[i]) {
			t.Errorf("cell %s: persisted runner's result differs from a plain runner's", cells[i])
		}
	}
}

// TestRunnerPersistSharedAcrossRunners: two live runners over one cache
// compute each cell once between them (the daemon's cross-session
// sharing), even with no disk involved.
func TestRunnerPersistSharedAcrossRunners(t *testing.T) {
	c, err := servecache.New("", func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(2)
	cells := persistCells()
	var mu sync.Mutex
	ran := 0
	for i := 0; i < 2; i++ {
		r := NewRunner(p)
		r.Cache = c
		r.OnCell = func(Cell, *simulator.Result, time.Duration) {
			mu.Lock()
			ran++
			mu.Unlock()
		}
		if _, err := r.Results(context.Background(), cells); err != nil {
			t.Fatal(err)
		}
	}
	if ran != len(cells) {
		t.Errorf("two runners sharing a cache simulated %d cells, want %d", ran, len(cells))
	}
	if st := c.Stats(); st.Computes != len(cells) || st.MemoryHits != len(cells) {
		t.Errorf("cache stats = %+v, want %d computes and %d memory hits", st, len(cells), len(cells))
	}
}

// TestCellKeyNormalizesAndSeparates: default and explicit spellings of a
// cell share one key; any result-shaping difference separates keys.
func TestCellKeyNormalizes(t *testing.T) {
	p := NewRunner(testParams(1)).Params()
	alias := CellKey(p, Cell{Scheduler: "fifo"})
	explicit := CellKey(p, Cell{Scheduler: "fifo", Capacity: 64, TraceSeed: p.Seed, Scenario: "steady", GPUsPer: 4})
	if alias != explicit {
		t.Errorf("normalized spellings differ:\n  %s\n  %s", alias, explicit)
	}
	seen := map[string]string{}
	add := func(name, key string) {
		if prev, dup := seen[key]; dup {
			t.Errorf("key collision between %s and %s", prev, name)
		}
		seen[key] = name
	}
	add("base", alias)
	add("sched", CellKey(p, Cell{Scheduler: "sjf"}))
	add("cap", CellKey(p, Cell{Scheduler: "fifo", Capacity: 32}))
	add("gpusper", CellKey(p, Cell{Scheduler: "fifo", GPUsPer: 8}))
	add("trace", CellKey(p, Cell{Scheduler: "fifo", TraceSeed: 99}))
	add("scenario", CellKey(p, Cell{Scheduler: "fifo", Scenario: "diurnal"}))
	p2 := p
	p2.Seed = 42
	add("seed", CellKey(p2, Cell{Scheduler: "fifo", TraceSeed: p.Seed}))
	p3 := p
	p3.Population = 99
	add("population", CellKey(p3, Cell{Scheduler: "fifo"}))
	p4 := p
	p4.RecordEvents = true
	add("events", CellKey(p4, Cell{Scheduler: "fifo"}))
}

// TestResultCachedReportsCacheService: ResultCached reports cached for
// every call that did not simulate its cell — a memory hit, a disk hit
// and a wait on another caller's computation — and only for those.
func TestResultCachedReportsCacheService(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	newRunner := func() *Runner {
		c, err := servecache.New(dir, func(string, ...any) {})
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(testParams(2))
		r.Cache = c
		return r
	}
	cell := Cell{Scheduler: "fifo", Capacity: 16}
	result := func(r *Runner, c Cell) bool {
		t.Helper()
		_, cached, err := r.ResultCached(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		return cached
	}
	r := newRunner()
	if result(r, cell) {
		t.Error("the simulating call reported cached")
	}
	if !result(r, cell) {
		t.Error("a memory hit reported not cached")
	}
	if !result(newRunner(), cell) {
		t.Error("a disk hit reported not cached")
	}

	// Park a simulation until a second caller waits on it.
	r = newRunner()
	waiting := make(chan struct{})
	r.OnCellStart = func(Cell) { <-waiting }
	fresh := Cell{Scheduler: "sjf", Capacity: 16}
	first := make(chan bool)
	go func() {
		_, cached, err := r.ResultCached(ctx, fresh)
		if err != nil {
			t.Error(err)
		}
		first <- cached
	}()
	second := make(chan bool)
	go func() {
		for r.CachedCells() == 0 { // until the first call holds the entry
			time.Sleep(time.Millisecond)
		}
		_, cached, err := r.ResultCached(ctx, fresh)
		if err != nil {
			t.Error(err)
		}
		second <- cached
	}()
	for r.Cache.Stats().DedupWaits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(waiting)
	if <-first {
		t.Error("the simulating call reported cached")
	}
	if !<-second {
		t.Error("a wait on another caller's computation reported not cached")
	}
}
