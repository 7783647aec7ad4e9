package ones

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/schedulers"
	"repro/internal/simulator"
)

// Session is a configured front door to the scheduler and experiment
// suite: one worker pool, one memoized result cache, one deterministic
// master seed. Sessions are safe for concurrent use; every distinct
// simulation cell runs at most once per session however many calls
// request it, as long as its cache is unbounded. Under CacheLimits an
// evicted cell reloads from disk or recomputes, with identical results.
type Session struct {
	// base is the session's own cell, resolved once through the engine
	// (engine.Cell.Normalize): what Run simulates, what its CellKey names
	// and what every Result reports.
	base   engine.Cell
	obs    Observer
	runner *engine.Runner

	progress struct {
		sync.Mutex
		done  int
		total int
	}
}

// New builds a Session from functional options (see the With… Option
// constructors). Scheduler, scenario and autoscaler names are validated
// eagerly: unknown names fail here with errors wrapping
// ErrUnknownScheduler / ErrUnknownScenario / ErrUnknownAutoscaler rather
// than on first Run.
func New(opts ...Option) (*Session, error) {
	st := settings{cell: engine.Cell{Scheduler: "ones", Scenario: scenario.Steady}}
	for _, o := range opts {
		o(&st)
	}
	if st.err != nil {
		return nil, st.err
	}
	if !schedulers.Has(st.cell.Scheduler) {
		return nil, fmt.Errorf("%w %q (known: %v)", ErrUnknownScheduler, st.cell.Scheduler, Schedulers())
	}
	if _, err := scenario.Get(st.cell.Scenario); err != nil {
		return nil, err
	}
	if st.cell.Autoscaler != "" {
		if _, err := autoscale.Get(st.cell.Autoscaler); err != nil {
			return nil, err
		}
	}
	// The trace seed comes from the final WithTrace: WithQuickScale
	// resets the trace, so no option writes it into the cell directly.
	st.cell.TraceSeed = st.trace.Seed
	runner := engine.NewRunner(st.trace.params(st.params))
	s := &Session{
		base:   st.cell.Normalize(runner.Params()),
		obs:    st.observer,
		runner: runner,
	}
	if err := s.runner.CheckBounds(s.base); err != nil {
		return nil, fmt.Errorf("ones: %w", err)
	}
	if st.cache != nil {
		s.runner.Cache = st.cache.impl
	}
	if st.metrics != nil {
		s.runner.Obs = st.metrics.reg
		if st.cache != nil {
			st.cache.impl.Instrument(st.metrics.reg)
		}
	}
	if s.obs != nil {
		s.runner.OnCellStart = func(cell engine.Cell) {
			s.emit(s.cellProgress(KindCellStart, cell, 0, nil))
		}
		s.runner.OnCell = func(cell engine.Cell, res *simulator.Result, elapsed time.Duration) {
			s.credit()
			s.emit(s.cellProgress(KindCellDone, cell, elapsed, newResult(cell, res)))
		}
		s.runner.OnCellCached = func(engine.Cell) { s.credit() }
	}
	return s, nil
}

// Workers returns the effective worker-pool size.
func (s *Session) Workers() int { return s.runner.Workers() }

// SimulatedCells reports how many simulation cells the session's cache
// holds in memory: with WithCache, every cell any session sharing the
// cache has simulated or loaded, less those CacheLimits evicted.
func (s *Session) SimulatedCells() int { return s.runner.CachedCells() }

func (s *Session) emit(p Progress) {
	if s.obs != nil {
		s.obs.Observe(p)
	}
}

// counts snapshots the done/total progress counters.
func (s *Session) counts() (done, total int) {
	s.progress.Lock()
	defer s.progress.Unlock()
	return s.progress.done, s.progress.total
}

// beginBatch grows the planned-cell total and emits run-start. Each
// planned cell is credited as it resolves: simulated cells with their
// cell-done event, cache hits silently (they execute nothing).
func (s *Session) beginBatch(cells []engine.Cell) {
	s.progress.Lock()
	s.progress.total += len(cells)
	s.progress.Unlock()
	done, total := s.counts()
	s.emit(Progress{Kind: KindRunStart, Done: done, Total: total})
}

// credit counts one resolved cell toward Done.
func (s *Session) credit() {
	s.progress.Lock()
	s.progress.done++
	s.progress.Unlock()
}

func (s *Session) endBatch(start time.Time) {
	done, total := s.counts()
	s.emit(Progress{Kind: KindRunDone, Elapsed: time.Since(start), Done: done, Total: total})
}

// cellProgress renders one cell event, resolving the cell's defaults so
// the event reports the coordinates that actually simulated.
func (s *Session) cellProgress(kind ProgressKind, cell engine.Cell, elapsed time.Duration, res *Result) Progress {
	done, total := s.counts()
	p := Progress{
		Kind:      kind,
		Cell:      cell.String(),
		Scheduler: cell.Scheduler,
		Capacity:  cell.Capacity,
		TraceSeed: cell.TraceSeed,
		Scenario:  cell.Scenario,
		Elapsed:   elapsed,
		Result:    res,
		Done:      done,
		Total:     total,
	}
	return p
}

// cell is the session's cell under another scheduler.
func (s *Session) cell(scheduler string) engine.Cell {
	c := s.base
	c.Scheduler = scheduler
	return c
}

// Run simulates the session's configured trace under its configured
// scheduler, scenario and topology. Cancelling the context aborts the
// cell even mid-simulation: Run returns ctx.Err(), caches nothing of it,
// and returns only once the session's workers have drained.
// Results are memoized: a second identical Run returns instantly.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	start := time.Now()
	s.beginBatch([]engine.Cell{s.base})
	defer s.endBatch(start)
	res, err := s.runner.Result(ctx, s.base)
	if err != nil {
		return nil, err
	}
	return newResult(s.base, res), nil
}

// RunJSON is Run for a caller that encodes the Result as JSON, as onesd
// does. A cell served from the cache (a memory or disk hit, or a wait on
// another caller's computation) comes back as the JSON encoding of its
// Result and a nil Result. That JSON is encoded once per cache entry and
// shared by every caller: it must not be modified. A cell this call
// simulated, or whose Result does not encode, comes back as the Result
// Run returns and nil JSON, so a cell nobody asks for twice is never
// encoded here and a caller that keeps it keeps the smaller struct.
func (s *Session) RunJSON(ctx context.Context) (*Result, json.RawMessage, error) {
	start := time.Now()
	s.beginBatch([]engine.Cell{s.base})
	defer s.endBatch(start)
	res, cached, err := s.runner.ResultCached(ctx, s.base)
	if err != nil {
		return nil, nil, err
	}
	if !cached {
		return newResult(s.base, res), nil, nil
	}
	// The entry is shared by every session whose cell has its CellKey, so
	// the bytes must depend on the key alone; newResult reads only the
	// resolved cell, whose every field is a key dimension
	// (TestRunJSONIsAFunctionOfTheKey pins this).
	var out *Result
	raw := s.runner.Cache.Attached(engine.CellKey(s.runner.Params(), s.base), res, func() []byte {
		out = newResult(s.base, res)
		b, err := json.Marshal(out)
		if err != nil {
			return nil
		}
		return b
	})
	if raw == nil {
		return out, nil, nil
	}
	return nil, raw, nil
}

// Compare simulates each named scheduler against the session's identical
// trace, scenario and capacity timeline — the paired comparison the
// paper's Wilcoxon analysis requires. Results come back in argument
// order. Unknown names fail (wrapping ErrUnknownScheduler) before any
// simulation starts.
func (s *Session) Compare(ctx context.Context, schedulerNames ...string) ([]*Result, error) {
	if len(schedulerNames) == 0 {
		schedulerNames = PaperSchedulers()
	}
	cells := make([]engine.Cell, len(schedulerNames))
	for i, name := range schedulerNames {
		if !schedulers.Has(name) {
			return nil, fmt.Errorf("%w %q (known: %v)", ErrUnknownScheduler, name, Schedulers())
		}
		cells[i] = s.cell(name)
	}
	start := time.Now()
	s.beginBatch(cells)
	defer s.endBatch(start)
	raw, err := s.runner.Results(ctx, cells)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(raw))
	for i, r := range raw {
		out[i] = newResult(cells[i], r)
	}
	return out, nil
}

// ExperimentResult is one rendered experiment.
type ExperimentResult struct {
	Name   string
	Title  string
	Output string
}

// RunExperiment regenerates one registered figure or table of the
// paper's evaluation and returns its rendered text. Unknown names fail
// wrapping ErrUnknownExperiment.
func (s *Session) RunExperiment(ctx context.Context, name string) (string, error) {
	out, err := s.RunExperiments(ctx, name)
	if err != nil {
		return "", err
	}
	return out[0].Output, nil
}

// RunExperiments regenerates the named experiments in order. Their
// declared simulation cells are deduplicated and run as one batch across
// the worker pool first — experiments sharing runs (fig15, table4, fig17,
// fig18) execute them once — and each experiment then renders from the
// results of its own cells, simulating nothing more. All names validate
// (wrapping ErrUnknownExperiment) before any simulation starts.
// Cancelling the context aborts the batch or the next render, and the
// call returns ctx.Err() with no outputs.
func (s *Session) RunExperiments(ctx context.Context, names ...string) ([]ExperimentResult, error) {
	exps := make([]engine.Experiment, len(names))
	for i, name := range names {
		e, err := experiments.Get(name)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	start := time.Now()
	p := s.runner.Params()
	cells := engine.DeclaredCells(exps, p)
	s.beginBatch(cells)
	defer s.endBatch(start)
	results, err := s.runner.Results(ctx, cells)
	if err != nil {
		return nil, err
	}
	byCell := make(map[engine.Cell]*simulator.Result, len(cells))
	for i, c := range cells {
		byCell[c] = results[i]
	}
	out := make([]ExperimentResult, len(exps))
	for i, e := range exps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var res []*simulator.Result
		if e.Cells != nil {
			for _, c := range e.Cells(p) {
				res = append(res, byCell[c.Normalize(p)])
			}
		}
		expStart := time.Now()
		s.emit(Progress{Kind: KindExperimentStart, Experiment: e.Name})
		text, err := e.Run(p, res)
		if err != nil {
			return nil, fmt.Errorf("ones: experiment %s: %w", e.Name, err)
		}
		s.emit(Progress{Kind: KindExperimentDone, Experiment: e.Name, Elapsed: time.Since(expStart)})
		out[i] = ExperimentResult{Name: e.Name, Title: e.Title, Output: text}
	}
	return out, nil
}

// ExperimentInfo describes one registered experiment.
type ExperimentInfo struct {
	Name  string `json:"name"`
	Title string `json:"title"`
}

// Experiments lists the registered experiments in paper (registration)
// order.
func Experiments() []ExperimentInfo {
	exps := experiments.All()
	out := make([]ExperimentInfo, len(exps))
	for i, e := range exps {
		out[i] = ExperimentInfo{Name: e.Name, Title: e.Title}
	}
	return out
}

// Schedulers lists the registered scheduler names, sorted.
func Schedulers() []string { return schedulers.Names() }

// PaperSchedulers lists the schedulers the paper's headline comparison
// (Figure 15) evaluates: ONES and its three baselines.
func PaperSchedulers() []string { return engine.PaperSchedulers() }

// ScenarioInfo describes one registered scenario.
type ScenarioInfo struct {
	Name    string `json:"name"`
	Title   string `json:"title"`
	Arrival string `json:"arrival"` // human description of the arrival process
	// ElasticCapacity is true when the scenario mutates cluster capacity
	// during the run (failures, preemptions, planned scaling).
	ElasticCapacity bool `json:"elastic_capacity"`
}

// Scenarios lists the registered scenarios sorted by name. Any "+"
// composition of these names (e.g. "diurnal+spot") is also accepted by
// WithScenario, provided the parts claim disjoint world dimensions.
func Scenarios() []ScenarioInfo {
	specs := scenario.Specs()
	out := make([]ScenarioInfo, len(specs))
	for i, sp := range specs {
		out[i] = ScenarioInfo{
			Name:            sp.Name,
			Title:           sp.Title,
			Arrival:         sp.Arrival.String(),
			ElasticCapacity: !sp.Capacity.IsStatic(),
		}
	}
	return out
}

// AutoscalerInfo describes one registered autoscaler policy.
type AutoscalerInfo struct {
	Name  string `json:"name"`
	Title string `json:"title"`
}

// Autoscalers lists the registered reactive autoscaler policies sorted
// by name. Any of these names is accepted by WithAutoscaler.
func Autoscalers() []AutoscalerInfo {
	policies := autoscale.Policies()
	out := make([]AutoscalerInfo, len(policies))
	for i, p := range policies {
		out[i] = AutoscalerInfo{Name: p.Name, Title: p.Title}
	}
	return out
}
