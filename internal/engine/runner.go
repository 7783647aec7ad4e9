package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/evolution"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/schedulers"
	"repro/internal/servecache"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// Runner executes simulation cells across a bounded worker pool and
// memoizes every result in its Cache. It is safe for concurrent use;
// each distinct cell runs once per cache even when several experiments
// request it at the same time (a cache with limits may evict a finished
// cell, which then reloads from disk or recomputes identically).
//
// Every entry point takes a context.Context. Cancellation takes effect
// both between cells and inside them: cells that have not yet claimed a
// worker slot never start, cells mid-simulation abort within ~1k
// simulation events (the simulator polls the context; see
// simulator.RunContext), and batch calls drain their in-flight work
// before returning, so no worker goroutine outlives the call. A cell
// aborted by cancellation is NOT cached — rerunning with a live context
// produces exactly the results an uncancelled run would have.
type Runner struct {
	params  Params
	workers int
	sem     chan struct{}

	// Cache memoizes and deduplicates the Runner's cells, keyed by
	// CellKey (which folds in every result-shaping parameter). NewRunner
	// installs a private memory-only cache; replace it before the first
	// use with a shared one (see internal/servecache) and results are
	// recalled from and written through to it, so they survive this
	// Runner — and, with a disk-backed cache, this process.
	Cache *servecache.Cache

	// Obs, when set before the first use, receives out-of-band runtime
	// telemetry: cells started/completed/cancelled/failed, worker-pool
	// occupancy, queue depth and a per-cell wall-time histogram (see
	// internal/obs and DESIGN.md "Observability"). Metrics never touch
	// the simulation — results are byte-identical with Obs set or nil —
	// and a nil Obs costs a single nil check per cell.
	Obs *obs.Registry

	// OnCellStart, when set before the first Results call, is invoked
	// just before a cell begins simulating (cache hits do not fire it).
	// Calls may come from multiple goroutines.
	OnCellStart func(cell Cell)
	// OnCell, when set before the first Results call, is invoked after
	// each cell actually simulates (cache hits do not fire it), with the
	// cell's result. Calls may come from multiple goroutines; the result
	// is shared and must not be mutated.
	OnCell func(cell Cell, res *simulator.Result, elapsed time.Duration)
	// OnCellCached, when set before the first Results call, is invoked
	// when Result returns a cell without simulating it: a memory or disk
	// hit, or a wait on another caller's computation. Together with
	// OnCell it fires once per successful Result call. Calls may come
	// from multiple goroutines.
	OnCellCached func(cell Cell)

	obsOnce sync.Once
	oh      *runnerObs
}

// runnerObs holds the Runner's instrument handles. The zero value —
// every handle nil — is a valid no-op set: a Runner without a Registry
// records against noRunnerObs and every site is a single-branch no-op.
type runnerObs struct {
	started   *obs.Counter
	completed *obs.Counter
	cancelled *obs.Counter
	failed    *obs.Counter
	busy      *obs.Gauge
	queued    *obs.Gauge
	cellTime  *obs.Histogram
}

// noRunnerObs is the shared no-op handle set for uninstrumented Runners.
var noRunnerObs runnerObs

// obsHandles lazily registers the engine instruments against r.Obs on
// first use (a shared all-nil set when no registry is set, so call sites
// never branch).
func (r *Runner) obsHandles() *runnerObs {
	r.obsOnce.Do(func() {
		reg := r.Obs
		if reg == nil {
			r.oh = &noRunnerObs
			return
		}
		r.oh = &runnerObs{
			started:   reg.Counter("engine_cells_started_total", "Simulation cells that began executing (cache hits excluded)."),
			completed: reg.Counter("engine_cells_completed_total", "Simulation cells that finished successfully."),
			cancelled: reg.Counter("engine_cells_cancelled_total", "Simulation cells aborted by context cancellation."),
			failed:    reg.Counter("engine_cells_failed_total", "Simulation cells that failed with a non-cancellation error."),
			busy:      reg.Gauge("engine_workers_busy", "Worker-pool slots currently executing a cell."),
			queued:    reg.Gauge("engine_queue_depth", "Cells waiting for a free worker-pool slot."),
			cellTime:  reg.Histogram("engine_cell_seconds", "Wall time to simulate one cell.", nil),
		}
		reg.Gauge("engine_workers", "Configured worker-pool size.").Set(float64(r.workers))
	})
	return r.oh
}

// NewRunner returns a Runner over the given params, normalized (see
// Params.Normalize), so a caller may set only the fields it cares about.
func NewRunner(p Params) *Runner {
	p = p.Normalize()
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A memory-only cache never touches the filesystem, so New cannot fail.
	cache, _ := servecache.New("", nil)
	return &Runner{
		params:  p,
		workers: workers,
		sem:     make(chan struct{}, workers),
		Cache:   cache,
	}
}

// Params returns the runner's experiment parameters.
func (r *Runner) Params() Params { return r.params }

// Workers returns the effective worker-pool size.
func (r *Runner) Workers() int { return r.workers }

// CachedCells reports how many entries the Runner's cache holds in
// memory: cells simulated, loaded or still in flight — through any
// Runner sharing the cache.
func (r *Runner) CachedCells() int { return r.Cache.Stats().Entries }

// CheckBounds rejects a cell whose trace or search would outgrow memory:
// a trace of more than workload.MaxJobs jobs, or an ONES cell whose
// population times initial GPUs exceeds evolution.MaxGenes. Every
// simulation passes it first; a caller validating outside input (the
// SDK's session) calls it to fail before any run starts.
func (r *Runner) CheckBounds(c Cell) error {
	if r.params.Jobs > workload.MaxJobs {
		return fmt.Errorf("%d jobs exceed the %d-job bound", r.params.Jobs, workload.MaxJobs)
	}
	if c.Scheduler != "ones" {
		return nil
	}
	topo, err := c.Normalize(r.params).Topology()
	if err != nil {
		return err
	}
	if gpus := topo.TotalGPUs(); r.params.Population > evolution.MaxGenes/gpus {
		return fmt.Errorf("population %d × %d GPUs exceeds the %d-gene search bound", r.params.Population, gpus, evolution.MaxGenes)
	}
	return nil
}

// isCtxErr reports whether err is the computing goroutine's context
// giving up, as opposed to the simulation itself failing.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Result runs (or recalls) a single cell through the Runner's cache,
// whose singleflight (servecache.Cache.Do) runs each cell once however
// many callers want it and never keeps a cancelled computation. The
// worker-pool slot is acquired inside the flight, so cache hits return
// immediately and goroutines waiting on another's in-flight computation
// of the same cell do not hold slots the pool could be simulating with.
// A caller whose context ends stops waiting at once.
func (r *Runner) Result(ctx context.Context, cell Cell) (*simulator.Result, error) {
	res, _, err := r.ResultCached(ctx, cell)
	return res, err
}

// ResultCached is Result that also reports whether the cache served the
// cell: a memory or disk hit, or a wait on another caller's computation,
// rather than a simulation this call ran.
func (r *Runner) ResultCached(ctx context.Context, cell Cell) (res *simulator.Result, cached bool, err error) {
	cell = cell.Normalize(r.params)
	simulated := false
	res, err = r.Cache.Do(ctx, CellKey(r.params, cell), func() (*simulator.Result, error) {
		simulated = true
		return r.simulate(ctx, cell)
	})
	switch {
	case err == nil:
		if !simulated && r.OnCellCached != nil {
			r.OnCellCached(cell)
		}
		return res, !simulated, nil
	case isCtxErr(err):
		return nil, false, err
	default:
		return nil, false, fmt.Errorf("engine: cell %s: %w", cell, err)
	}
}

// Results fans the cells across the worker pool and returns their results
// in input order. Cells already cached return instantly; the rest run at
// most Workers at a time. The batch drains before returning — on
// cancellation, cells not yet started are skipped, cells mid-simulation
// abort uncached, and only once every worker is back does the call
// return (with ctx.Err unless a simulation failed first) — so no worker
// goroutine outlives the call.
func (r *Runner) Results(ctx context.Context, cells []Cell) ([]*simulator.Result, error) {
	out := make([]*simulator.Result, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c Cell) {
			defer wg.Done()
			out[i], errs[i] = r.Result(ctx, c)
		}(i, c)
	}
	wg.Wait()
	// A real simulation failure beats the ambient cancellation error.
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if isCtxErr(err) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return nil, err
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return out, nil
}

// simulate executes one simulation: check the cell's bounds, wait for a
// worker slot (or the context), resolve the scenario, generate the trace
// its arrival process shapes, build the named scheduler with the
// cell-derived seed, compose the capacity sources, simulate. Out of band,
// it records the cell lifecycle — queued → trace-gen → simulate → done —
// as engine metrics and, when the context carries a trace (see
// obs.StartSpan), as a span tree.
func (r *Runner) simulate(ctx context.Context, c Cell) (res *simulator.Result, err error) {
	oh := r.obsHandles()
	ctx, cellSpan := obs.StartSpan(ctx, "cell "+c.String())
	defer func() {
		if err != nil {
			if isCtxErr(err) {
				cellSpan.Annotate("cancelled", "true")
			} else {
				cellSpan.Annotate("error", err.Error())
			}
		}
		cellSpan.End()
	}()
	if err := r.CheckBounds(c); err != nil {
		return nil, err
	}
	queueSpan := cellSpan.StartChild("queued")
	oh.queued.Inc()
	select {
	case r.sem <- struct{}{}:
		oh.queued.Dec()
	case <-ctx.Done():
		oh.queued.Dec()
		queueSpan.End()
		return nil, ctx.Err()
	}
	queueSpan.End()
	oh.busy.Inc()
	defer func() {
		oh.busy.Dec()
		<-r.sem
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	//ones:allow detrand obs-only wall-time: elapsed feeds the cell-seconds histogram and OnCell progress callbacks, never the Result
	start := time.Now()
	genSpan := cellSpan.StartChild("trace-gen")
	scn, err := scenario.Get(c.Scenario)
	if err != nil {
		genSpan.End()
		return nil, err
	}
	tcfg := r.params.TraceConfig(c.TraceSeed)
	tcfg.Arrival = scn.Arrival
	// Generate is a pure function of (params, seed, arrival spec), so
	// every cell sharing them faces the identical job stream: paired
	// comparisons across schedulers and capacity scenarios rest on that.
	trace, err := workload.Generate(tcfg)
	genSpan.End()
	if err != nil {
		return nil, err
	}
	oh.started.Inc()
	if r.OnCellStart != nil {
		r.OnCellStart(c)
	}
	// Workers bounds this Runner's cells, and cells are the primary unit
	// of parallelism, but a batch with fewer cells than workers would
	// leave the surplus idle — so the slots still free when this cell
	// starts flow into the cell as intra-cell parallelism for ONES's
	// evolution loop (its candidate generation fans out over goroutines).
	// This is safe because evolution results are identical at any
	// parallelism: candidate randomness is pre-seeded serially from the
	// master RNG before the fan-out and selection ties break by candidate
	// index, so the champion — and every Result byte — matches the serial
	// run. The snapshot of free slots is taken once per cell: this cell's
	// own slot (already acquired) plus every slot no other cell of this
	// Runner has claimed. A busy pool yields 1; a lone cell gets all
	// Workers slots. This rule is the only source of the fan-out width. It
	// sees only this Runner's pool: onesd builds one Runner per run, so
	// concurrent runs each size their fan-out from their own idle pool
	// and together can use more goroutines than GOMAXPROCS (DESIGN.md,
	// "Deterministic intra-cell parallelism", has the measurements).
	evoPar := max(r.workers-len(r.sem)+1, 1)
	simSpan := cellSpan.StartChild("simulate")
	simSpan.Annotate("scheduler", c.Scheduler)
	sched, err := schedulers.New(c.Scheduler, schedulers.Config{
		Seed:         c.schedulerSeed(r.params.Seed),
		ArrivalRate:  tcfg.ArrivalRate(),
		Population:   r.params.Population,
		MutationRate: r.params.MutationRate,
		Parallelism:  evoPar,
		Obs:          r.Obs,
		Span:         simSpan,
	})
	if err != nil {
		simSpan.End()
		return nil, err
	}
	topo, err := c.Topology()
	if err != nil {
		simSpan.End()
		return nil, err
	}
	simCfg := simulator.DefaultConfig(trace)
	simCfg.Topo = topo
	simCfg.RecordEvents = r.params.RecordEvents
	simCfg.MinServers = scn.Capacity.MinServers
	// The capacity timeline is seeded from the cell key minus the
	// scheduler, so paired comparisons face the identical world.
	var srcs []scenario.CapacitySource
	if timeline := scn.Capacity.Timeline(c.scenarioSeed(r.params.Seed), c.drainSeed(r.params.Seed)); len(timeline) > 0 {
		srcs = append(srcs, scenario.NewTimelineSource(timeline))
	}
	if c.Autoscaler != "" {
		policy, perr := autoscale.Get(c.Autoscaler)
		if perr != nil {
			simSpan.End()
			return nil, perr
		}
		srcs = append(srcs, autoscale.NewController(policy, c.autoscalerSeed(r.params.Seed), r.Obs))
	}
	simCfg.Source = scenario.Sources(srcs...)
	res, err = simulator.RunContext(ctx, simCfg, sched)
	simSpan.End()
	elapsed := time.Since(start) //ones:allow detrand obs-only wall-time measurement paired with the start read above
	if err != nil {
		if isCtxErr(err) {
			oh.cancelled.Inc()
		} else {
			oh.failed.Inc()
		}
		return nil, err
	}
	oh.completed.Inc()
	oh.cellTime.Observe(elapsed.Seconds())
	if r.OnCell != nil {
		r.OnCell(c, res, elapsed)
	}
	return res, nil
}
