package engine

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/evolution"
	"repro/internal/servecache"
	"repro/internal/simulator"
)

// testParams are small enough that the full scheduler × capacity grid
// runs in well under a second per worker configuration.
func testParams(workers int) Params {
	return Params{
		Seed:         7,
		Jobs:         10,
		Interarrival: 25,
		Population:   6,
		Capacities:   []int{16, 32},
		ParamScale:   400,
		CFPoints:     8,
		Workers:      workers,
	}
}

// grid returns base under each scheduler at each capacity,
// capacity-major.
func grid(base Cell, scheds []string, capacities ...int) []Cell {
	var cells []Cell
	for _, capGPUs := range capacities {
		for _, s := range scheds {
			base.Scheduler, base.Capacity = s, capGPUs
			cells = append(cells, base)
		}
	}
	return cells
}

func testCells() []Cell {
	cells := grid(Cell{}, []string{"ones", "fifo", "sjf", "tiresias"}, 16, 32)
	// Scenario cells: non-stationary arrivals and capacity churn must be
	// just as deterministic as the fixed-world grid.
	for _, scn := range []string{"diurnal", "node-failure", "spot"} {
		cells = append(cells, grid(Cell{Scenario: scn}, []string{"ones", "tiresias"}, 32)...)
	}
	return cells
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	cells := testCells()
	var baseline []any
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		r := NewRunner(testParams(workers))
		results, err := r.Results(context.Background(), cells)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var snapshot []any
		for _, res := range results {
			snapshot = append(snapshot, res.Scheduler, res.Jobs, res.Makespan, res.Reconfigs)
		}
		if baseline == nil {
			baseline = snapshot
			continue
		}
		if !reflect.DeepEqual(baseline, snapshot) {
			t.Errorf("workers=%d: results differ from workers=1", workers)
		}
	}
}

func TestRunnerSeedChangesResults(t *testing.T) {
	cell := Cell{Scheduler: "ones", Capacity: 16}
	p1 := testParams(1)
	p2 := testParams(1)
	p2.Seed = 8
	r1, err := NewRunner(p1).Result(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(p2).Result(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Jobs, r2.Jobs) {
		t.Error("different master seeds produced identical per-job metrics")
	}
}

func TestRunnerCacheDedupes(t *testing.T) {
	r := NewRunner(testParams(4))
	var mu sync.Mutex
	ran, hits := 0, 0
	r.OnCell = func(Cell, *simulator.Result, time.Duration) {
		mu.Lock()
		ran++
		mu.Unlock()
	}
	r.OnCellCached = func(Cell) {
		mu.Lock()
		hits++
		mu.Unlock()
	}
	cells := testCells()
	// Ask for everything twice in one batch, plus the normalized-alias
	// forms (Capacity 0 ⇒ 64, TraceSeed 0 ⇒ master) of a fresh cell.
	batch := append(append([]Cell{}, cells...), cells...)
	batch = append(batch, Cell{Scheduler: "fifo"}, Cell{Scheduler: "fifo", Capacity: 64, TraceSeed: 7})
	if _, err := r.Results(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Results(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	want := len(cells) + 1 // the grid plus the deduped 64-GPU FIFO cell
	if ran != want {
		t.Errorf("ran %d simulations, want %d (cache failed to dedupe)", ran, want)
	}
	if got := r.CachedCells(); got != want {
		t.Errorf("CachedCells = %d, want %d", got, want)
	}
	// Every request that did not simulate was served by the cache.
	if requests := len(batch) + len(cells); hits != requests-want {
		t.Errorf("OnCellCached fired %d times, want %d (one per request served without simulating)", hits, requests-want)
	}
}

func TestRunnerPairsTraces(t *testing.T) {
	r := NewRunner(testParams(2))
	results, err := r.Results(context.Background(), grid(Cell{}, []string{"fifo", "sjf"}, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(results[0].Jobs) != len(results[1].Jobs) {
		t.Fatalf("paired comparison saw different job sets: %+v", results)
	}
}

func TestRunnerDefaultsEmptyCapacities(t *testing.T) {
	p := testParams(1)
	p.Capacities = nil
	r := NewRunner(p)
	if len(r.Params().Capacities) == 0 {
		t.Error("empty Capacities not defaulted; sweep experiments would panic")
	}
}

func TestRunnerUnknownScheduler(t *testing.T) {
	r := NewRunner(testParams(1))
	if _, err := r.Result(context.Background(), Cell{Scheduler: "bogus", Capacity: 16}); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// TestRunnerRejectsOversizedSearch: an ONES cell whose population times
// GPUs exceeds evolution.MaxGenes fails before anything is built and
// leaves nothing in the cache, while a FIFO cell under the same params,
// which holds no population, runs.
func TestRunnerRejectsOversizedSearch(t *testing.T) {
	p := testParams(1)
	p.Population = evolution.MaxGenes/16 + 1
	r := NewRunner(p)
	dir := t.TempDir()
	cache, err := servecache.New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Cache = cache
	if _, err := r.Result(context.Background(), Cell{Scheduler: "ones", Capacity: 16}); err == nil {
		t.Fatal("ONES cell over the gene bound ran")
	}
	if files, _ := os.ReadDir(dir); cache.Stats().Computes != 0 || len(files) != 0 {
		t.Errorf("rejected cell reached the cache: %+v, %d files", cache.Stats(), len(files))
	}
	if _, err := r.Result(context.Background(), Cell{Scheduler: "fifo", Capacity: 16}); err != nil {
		t.Fatalf("FIFO cell under the same params: %v", err)
	}
}

func TestRunnerComposedScenarioCell(t *testing.T) {
	r := NewRunner(testParams(2))
	res, err := r.Result(context.Background(), Cell{Scheduler: "fifo", Capacity: 32, Scenario: "diurnal+spot"})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityEvents == 0 {
		t.Error("composed scenario applied no spot capacity events")
	}
	// The composed cell shares the plain-diurnal arrival spec, so it
	// must replay the same job stream as a plain "diurnal" cell.
	plain, err := r.Result(context.Background(), Cell{Scheduler: "fifo", Capacity: 32, Scenario: "diurnal"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jobStream(res), jobStream(plain); !reflect.DeepEqual(got, want) {
		t.Errorf("diurnal+spot job stream %v, want plain diurnal's %v", got, want)
	}
}

func TestRunnerUnknownScenario(t *testing.T) {
	r := NewRunner(testParams(1))
	_, err := r.Result(context.Background(), Cell{Scheduler: "fifo", Capacity: 16, Scenario: "bogus"})
	if err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestRunnerSharesTracesAcrossScenarios(t *testing.T) {
	r := NewRunner(testParams(2))
	// steady and node-failure share the Poisson arrival spec ⇒ one job
	// stream; diurnal draws another.
	cells := []Cell{
		{Scheduler: "fifo", Capacity: 16},
		{Scheduler: "fifo", Capacity: 16, Scenario: "node-failure"},
		{Scheduler: "fifo", Capacity: 16, Scenario: "diurnal"},
	}
	res, err := r.Results(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	steady, failure, diurnal := jobStream(res[0]), jobStream(res[1]), jobStream(res[2])
	if len(steady) == 0 {
		t.Fatal("the steady cell finished no jobs")
	}
	if !reflect.DeepEqual(steady, failure) {
		t.Errorf("node-failure job stream %v, want steady's %v", failure, steady)
	}
	if reflect.DeepEqual(steady, diurnal) {
		t.Error("diurnal replayed the steady job stream")
	}
}

// jobStream lists a result's jobs as "ID name submit", sorted: the job
// stream its cell's trace produced.
func jobStream(res *simulator.Result) []string {
	out := make([]string, len(res.Jobs))
	for i, j := range res.Jobs {
		out[i] = fmt.Sprintf("%d %s %v", j.ID, j.Name, j.Submit)
	}
	sort.Strings(out)
	return out
}

func TestRunnerNodeFailureEvictsButCompletes(t *testing.T) {
	r := NewRunner(testParams(2))
	res, err := r.Result(context.Background(), Cell{Scheduler: "tiresias", Capacity: 32, Scenario: "node-failure"})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityEvents == 0 {
		t.Error("node-failure scenario applied no capacity events")
	}
	if res.Evictions == 0 {
		t.Error("node-failure scenario evicted no jobs")
	}
	if res.Truncated {
		t.Errorf("%d jobs never finished under node failures", res.Unfinished)
	}
}

func TestScenarioSeedPairsAcrossSchedulers(t *testing.T) {
	a := Cell{Scheduler: "ones", Capacity: 64, TraceSeed: 1, Scenario: "node-failure"}
	b := Cell{Scheduler: "tiresias", Capacity: 64, TraceSeed: 1, Scenario: "node-failure"}
	if a.scenarioSeed(1) != b.scenarioSeed(1) {
		t.Error("schedulers facing the same scenario cell must draw the same capacity timeline")
	}
	c := Cell{Scheduler: "ones", Capacity: 64, TraceSeed: 1, Scenario: "spot"}
	if a.scenarioSeed(1) == c.scenarioSeed(1) {
		t.Error("different scenarios share a capacity-timeline seed")
	}
	if a.scenarioSeed(1) == a.scenarioSeed(2) {
		t.Error("scenario seed ignores the master seed")
	}
}

func TestCellSchedulerSeedStableAndDistinct(t *testing.T) {
	a := Cell{Scheduler: "ones", Capacity: 16, TraceSeed: 1}
	if a.schedulerSeed(1) != a.schedulerSeed(1) {
		t.Error("seed derivation is not a pure function of the key")
	}
	seen := map[int64]Cell{}
	for _, c := range []Cell{
		a,
		{Scheduler: "drl", Capacity: 16, TraceSeed: 1},
		{Scheduler: "ones", Capacity: 32, TraceSeed: 1},
		{Scheduler: "ones", Capacity: 16, TraceSeed: 2},
		{Scheduler: "ones", Capacity: 16, TraceSeed: 1, Scenario: "node-failure"},
	} {
		for _, master := range []int64{1, 2} {
			s := c.schedulerSeed(master)
			if s <= 0 {
				t.Errorf("cell %v master %d: non-positive seed %d", c, master, s)
			}
			if prev, dup := seen[s]; dup {
				t.Errorf("seed collision between %v and %v", prev, c)
			}
			seen[s] = c
		}
	}
}

func TestDeclaredCellsDedupes(t *testing.T) {
	exps := []Experiment{
		{Name: "a", Cells: func(p Params) []Cell {
			return []Cell{{Scheduler: "ones"}, {Scheduler: "fifo", Capacity: 16}}
		}},
		{Name: "b"}, // no cells
		{Name: "c", Cells: func(p Params) []Cell {
			return []Cell{{Scheduler: "ones", Capacity: 64, TraceSeed: 7}} // alias of a's first
		}},
	}
	cells := DeclaredCells(exps, testParams(1))
	if len(cells) != 2 {
		t.Fatalf("DeclaredCells = %v, want 2 deduped cells", cells)
	}
	if cells[0].Capacity != 64 || cells[0].TraceSeed != 7 {
		t.Errorf("cells not normalized: %+v", cells[0])
	}
}
