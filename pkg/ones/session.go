package ones

import (
	"context"
	"fmt"
	"repro/internal/simulator"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/schedulers"
)

// Session is a configured front door to the scheduler and experiment
// suite: one worker pool, one memoized result cache, one deterministic
// master seed. Sessions are safe for concurrent use; every distinct
// simulation cell runs at most once per session however many calls
// request it, as long as its cache is unbounded. Under CacheLimits an
// evicted cell reloads from disk or recomputes, with identical results.
type Session struct {
	params     engine.Params
	scheduler  string
	scenario   string
	autoscaler string
	servers    int
	gpusPer    int
	shape      string
	traceSeed  int64
	obs        Observer
	metrics    *Metrics
	runner     *engine.Runner

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
	st := settings{scheduler: "ones", scenario: scenario.Steady}
	for _, o := range opts {
		o(&st)
	}
	if st.err != nil {
		return nil, st.err
	}
	if !schedulers.Has(st.scheduler) {
		return nil, fmt.Errorf("%w %q (known: %v)", ErrUnknownScheduler, st.scheduler, Schedulers())
	}
	if _, err := scenario.Get(st.scenario); err != nil {
		return nil, err
	}
	if st.autoscaler != "" {
		if _, err := autoscale.Get(st.autoscaler); err != nil {
			return nil, err
		}
	}
	p := st.params
	if st.trace.Jobs > 0 {
		p.Jobs = st.trace.Jobs
	}
	if st.trace.MeanInterarrival > 0 {
		p.Interarrival = st.trace.MeanInterarrival
	}
	if st.trace.MaxGPUs > 0 {
		p.MaxGPUs = st.trace.MaxGPUs
	}
	s := &Session{
		scheduler:  st.scheduler,
		scenario:   st.scenario,
		autoscaler: st.autoscaler,
		servers:    st.servers,
		gpusPer:    st.gpusPer,
		shape:      st.shape,
		traceSeed:  st.trace.Seed,
		obs:        st.observer,
		metrics:    st.metrics,
		runner:     engine.NewRunner(p),
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
	s.params = s.runner.Params()
	if s.obs != nil {
		s.runner.OnCellStart = func(cell engine.Cell) {
			s.emit(s.cellProgress(KindCellStart, cell, 0, nil))
		}
		s.runner.OnCell = func(cell engine.Cell, res *simulator.Result, elapsed time.Duration) {
			s.credit()
			s.emit(s.cellProgress(KindCellDone, cell, elapsed, newResult(cell, s.params, res)))
		}
		s.runner.OnCellCached = func(engine.Cell) { s.credit() }
	}
	return s, nil
}

// Workers returns the effective worker-pool size.
func (s *Session) Workers() int { return s.runner.Workers() }

// Seed returns the session's master RNG seed.
func (s *Session) Seed() int64 { return s.params.Seed }

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

// credit counts one resolved cell toward Done. Experiment rendering
// re-reads cells its batch already resolved; those reads are not new
// work, so Done never passes Total.
func (s *Session) credit() {
	s.progress.Lock()
	if s.progress.done < s.progress.total {
		s.progress.done++
	}
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

// cell maps the session configuration onto one engine cell for the given
// scheduler.
func (s *Session) cell(scheduler string) engine.Cell {
	return engine.Cell{
		Scheduler:  scheduler,
		Capacity:   s.servers * s.gpusPer,
		GPUsPer:    s.gpusPer,
		Shape:      s.shape,
		TraceSeed:  s.traceSeed,
		Scenario:   s.scenario,
		Autoscaler: s.autoscaler,
	}
}

// Run simulates the session's configured trace under its configured
// scheduler, scenario and topology. The context cancels pending work at
// cell boundaries; the session's workers drain before Run returns.
// Results are memoized: a second identical Run returns instantly.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	start := time.Now()
	cell := s.cell(s.scheduler)
	s.beginBatch([]engine.Cell{cell})
	defer s.endBatch(start)
	res, err := s.runner.Result(ctx, cell)
	if err != nil {
		return nil, err
	}
	return newResult(cell, s.params, res), nil
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
		out[i] = newResult(cells[i], s.params, r)
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
// declared simulation cells are deduplicated and prewarmed across the
// worker pool first — experiments sharing runs (fig15, table4, fig17,
// fig18) execute them once — and each experiment then renders from the
// warm cache. All names validate (wrapping ErrUnknownExperiment) before
// any simulation starts.
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
	cells := engine.DeclaredCells(exps, s.params)
	s.beginBatch(cells)
	defer s.endBatch(start)
	if len(cells) > 0 {
		if _, err := s.runner.Results(ctx, cells); err != nil {
			return nil, err
		}
	}
	out := make([]ExperimentResult, len(exps))
	for i, e := range exps {
		expStart := time.Now()
		s.emit(Progress{Kind: KindExperimentStart, Experiment: e.Name})
		text, err := e.Run(ctx, s.runner)
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
