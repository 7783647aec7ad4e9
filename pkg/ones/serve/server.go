// Package serve is the HTTP control plane of cmd/onesd — public so the daemon can
// be embedded in other processes; it multiplexes
// many client sessions over one process, one shared (and optionally
// persistent) result cache, and one run table. Each POST /v1/runs builds
// a ones.Session from the request body, runs it on its own goroutine
// under a per-run context, and exposes the run's lifecycle over JSON:
// poll it, stream its progress events as NDJSON, cancel it (the context
// aborts the simulation mid-cell), list the registries.
//
// The package is plain net/http + encoding/json — no dependencies — and
// is exercised end-to-end (with -race) by serve_test.go.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/pkg/ones"
)

// ErrShuttingDown rejects new runs once Shutdown has begun.
var ErrShuttingDown = errors.New("server is shutting down")

// Option configures a Server under construction (see New).
type Option func(*Server)

// WithMetrics wires a telemetry sink into the server: every run's
// Session records into it (engine, cache and evolution series), each run
// is traced under its run ID (served by GET /v1/runs/{id}/trace), the
// HTTP mux is instrumented per endpoint, and GET /metrics renders the
// whole registry as Prometheus text. The shared cache, when present, is
// instrumented at construction so its series exist before the first run.
func WithMetrics(m *ones.Metrics) Option {
	return func(s *Server) { s.metrics = m }
}

// Config bounds the daemon's state and configures admission control:
// one cap on the run table and one setting per protection. The zero
// value disables everything — unbounded run table, no auth, no rate
// limit, no breaker — which is the pre-hardening behavior; each field
// opts one protection in independently.
type Config struct {
	// MaxRuns caps the run table: when a new run would push it past the
	// cap, the oldest FINISHED runs are evicted first (evicted runs 404;
	// in-flight runs are never evicted, so the table can transiently
	// exceed the cap under a burst of live work — that is what the
	// breaker is for). A finished run's result never changes, so runs do
	// not expire by age. 0 ⇒ unbounded.
	MaxRuns int
	// AuthToken, when set, requires "Authorization: Bearer <AuthToken>"
	// on every /v1 endpoint (401 otherwise). /healthz, /readyz and
	// /metrics stay open for probes and scrapers.
	AuthToken string
	// RatePerSec, when positive, applies an independent token-bucket
	// rate limit of this many requests/second to each /v1 endpoint
	// (429 + Retry-After beyond it). Each bucket holds one second's
	// worth of tokens, at least one.
	RatePerSec float64
	// BreakerBacklog, when positive, arms the run-creation circuit
	// breaker: once this many runs are executing concurrently, new POST
	// /v1/runs are shed with 503 + Retry-After for a fixed 5s cooldown,
	// and after it until the backlog has drained.
	BreakerBacklog int
}

// WithConfig installs the bounded-state and admission configuration
// (see Config). Without it the server behaves exactly as before the
// hardening pass.
func WithConfig(cfg Config) Option {
	return func(s *Server) { s.cfg = cfg }
}

// RunSpec is the POST /v1/runs request body. Zero fields keep the SDK
// defaults (scheduler "ones", scenario "steady", the 16×4 Longhorn
// topology, seed 1). Quick shrinks the workload to smoke-test scale
// before the other fields apply. Shape requests a heterogeneous cluster
// ("4x8,2x4": per-server GPU counts, one rack per comma group — see
// ones.WithShape) and overrides Servers/GPUsPerServer when set.
type RunSpec struct {
	Scheduler string `json:"scheduler,omitempty"`
	Scenario  string `json:"scenario,omitempty"`
	// Autoscaler attaches a reactive autoscaling controller by registry
	// name (see GET /v1/autoscalers and ones.WithAutoscaler).
	Autoscaler    string  `json:"autoscaler,omitempty"`
	Servers       int     `json:"servers,omitempty"`
	GPUsPerServer int     `json:"gpus_per_server,omitempty"`
	Shape         string  `json:"shape,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Jobs          int     `json:"jobs,omitempty"`
	Interarrival  float64 `json:"interarrival_s,omitempty"`
	MaxGPUs       int     `json:"max_gpus,omitempty"`
	Population    int     `json:"population,omitempty"`
	MutationRate  float64 `json:"mutation_rate,omitempty"`
	RecordEvents  bool    `json:"record_events,omitempty"`
	Quick         bool    `json:"quick,omitempty"`
}

// options maps the spec onto SDK options (validated by ones.New).
func (sp RunSpec) options(obs ones.Observer, cache *ones.Cache) []ones.Option {
	var opts []ones.Option
	if sp.Quick {
		opts = append(opts, ones.WithQuickScale())
	}
	if sp.Scheduler != "" {
		opts = append(opts, ones.WithScheduler(sp.Scheduler))
	}
	if sp.Scenario != "" {
		opts = append(opts, ones.WithScenario(sp.Scenario))
	}
	if sp.Autoscaler != "" {
		opts = append(opts, ones.WithAutoscaler(sp.Autoscaler))
	}
	if sp.Servers != 0 || sp.GPUsPerServer != 0 {
		servers, per := sp.Servers, sp.GPUsPerServer
		if servers == 0 {
			servers = 16
		}
		if per == 0 {
			per = 4
		}
		opts = append(opts, ones.WithTopology(servers, per))
	}
	if sp.Shape != "" {
		opts = append(opts, ones.WithShape(sp.Shape))
	}
	if sp.Jobs != 0 || sp.Interarrival != 0 || sp.MaxGPUs != 0 || sp.Seed != 0 {
		opts = append(opts, ones.WithTrace(ones.Trace{
			Jobs:             sp.Jobs,
			MeanInterarrival: sp.Interarrival,
			MaxGPUs:          sp.MaxGPUs,
			Seed:             sp.Seed,
		}))
	}
	if sp.Seed != 0 {
		opts = append(opts, ones.WithSeed(sp.Seed))
	}
	if sp.Population != 0 {
		opts = append(opts, ones.WithPopulation(sp.Population))
	}
	if sp.MutationRate != 0 {
		opts = append(opts, ones.WithMutationRate(sp.MutationRate))
	}
	if sp.RecordEvents {
		opts = append(opts, ones.WithEventLog(true))
	}
	if cache != nil {
		opts = append(opts, ones.WithCache(cache))
	}
	if obs != nil {
		opts = append(opts, ones.WithObserver(obs))
	}
	return opts
}

// Run statuses, in lifecycle order.
const (
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// run is one client-submitted simulation: a session executing on its own
// goroutine, with its progress events kept in one append-only log. Every
// stream client reads that log through its own cursor (see since), so
// the run never waits on a client and a slow client holds nothing but
// its index. An onesd run logs at most four events (run-start,
// cell-start, cell-done, run-done).
//
// Lock discipline: run.mu guards the log, its wake channel and the
// terminal-status fields. The lock order is Server.mu → run.mu; nothing
// acquires Server.mu while holding run.mu, and nothing blocks under it.
type run struct {
	ID      string
	Spec    RunSpec
	Created time.Time
	cancel  context.CancelFunc
	events  *obs.Counter // onesd_hub_events_total (nil-safe)

	mu sync.Mutex
	// log holds every event so far; grew is closed, and replaced, each
	// time log grows or the run finishes.
	log    []ones.Progress
	grew   chan struct{}
	status string
	// A done run keeps its Result in one of two forms: result, when the
	// run simulated its cell, or resultJSON, the shared encoding of a
	// cache-served cell's Result (see ones.Session.RunJSON), which
	// nothing here ever modifies.
	result     *ones.Result
	resultJSON json.RawMessage
	errMsg     string
}

func newRun(id string, spec RunSpec, cancel context.CancelFunc, created time.Time, events *obs.Counter) *run {
	return &run{
		ID:      id,
		Spec:    spec,
		Created: created,
		cancel:  cancel,
		events:  events,
		grew:    make(chan struct{}),
		status:  StatusRunning,
	}
}

// Observe implements ones.Observer: it appends the event to the log and
// wakes the run's stream clients. An event after finish is ignored.
func (r *run) Observe(p ones.Progress) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.status != StatusRunning {
		return
	}
	r.log = append(r.log, p)
	r.events.Inc()
	r.wakeLocked()
}

// wakeLocked wakes every stream client waiting on the run and arms a
// fresh channel for the next change.
func (r *run) wakeLocked() {
	close(r.grew)
	r.grew = make(chan struct{})
}

// finish records the terminal state and wakes the run's stream clients:
// a done run keeps res or, when the cache served it, raw (see run). A
// run that simulated its cell keeps the Result its cell-done event
// carries instead of res: the session built both from the same cell and
// simulation, so the run holds one copy, not two.
// wasCancelled separates a client cancellation from a genuine failure.
func (r *run) finish(res *ones.Result, raw json.RawMessage, err error, wasCancelled bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err == nil:
		r.status = StatusDone
		r.result, r.resultJSON = res, raw
		for _, p := range r.log {
			if res != nil && p.Kind == ones.KindCellDone && p.Result != nil {
				r.result = p.Result
			}
		}
	case wasCancelled:
		r.status = StatusCancelled
		r.errMsg = err.Error()
	default:
		r.status = StatusFailed
		r.errMsg = err.Error()
	}
	r.wakeLocked()
}

// since returns the events logged from index i on, the channel the run
// closes at its next change, and whether the run has finished (a
// finished run's log is complete). The events' capacity is capped at
// their length, so a later append never writes into what the reader
// holds.
func (r *run) since(i int) (events []ones.Progress, grew <-chan struct{}, finished bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.log)
	return r.log[i:n:n], r.grew, r.status != StatusRunning
}

// snapshot returns the run's status view under one lock acquisition;
// its cell counts come from the last logged event (0/0 before the
// first). A done run served from the cache has no Result in the view:
// the shared JSON of its Result comes back beside it instead.
func (r *run) snapshot() (RunStatus, json.RawMessage) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{ID: r.ID, Status: r.status, Created: r.Created, Spec: r.Spec, Result: r.result, Error: r.errMsg}
	if n := len(r.log); n > 0 {
		st.CellsDone, st.CellsTotal = r.log[n-1].Done, r.log[n-1].Total
	}
	return st, r.resultJSON
}

// isFinished reports whether the run has reached a terminal state.
// Called with Server.mu held; the brief run.mu acquisition inside
// respects the Server.mu → run.mu lock order.
func (r *run) isFinished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status != StatusRunning
}

// Server owns the run table, the shared cache and the lifecycle context
// every run inherits. Shutdown cancels that context (aborting every
// in-flight simulation mid-cell) and drains the run goroutines.
//
// Lock order: Server.mu → run.mu. The breaker holds breaker.mu while it
// counts running runs, so breaker.mu comes before both; a rate-limit
// bucket's mu is a leaf. Server helpers suffixed *Locked run under
// Server.mu; oneslint's lockedconv analyzer pins their callers.
type Server struct {
	cache   *ones.Cache
	log     *log.Logger
	metrics *ones.Metrics
	cfg     Config
	now     func() time.Time // injectable for the rate and breaker tests

	// HTTP middleware handles (nil without WithMetrics; all nil-safe).
	httpReqs      *obs.CounterVec
	httpLat       *obs.HistogramVec
	httpInFlight  *obs.Gauge
	evictions     *obs.CounterVec // cache_evictions_total{store,reason}
	runEvents     *obs.Counter
	streamClients *obs.Gauge
	authFails     *obs.Counter
	rateLimited   *obs.CounterVec

	breaker *breaker // nil unless Config.BreakerBacklog > 0

	base context.Context
	stop context.CancelFunc

	mu     sync.Mutex
	runs   map[string]*run
	order  []string // creation order, for stable listings
	seq    int
	closed bool

	wg sync.WaitGroup
}

// New builds a Server over a shared cache (nil ⇒ runs are independent:
// no cross-run dedup, no persistence) and a logger (nil ⇒ the standard
// logger). Options add observability (see WithMetrics); a bare New is
// unchanged from earlier releases.
func New(cache *ones.Cache, logger *log.Logger, opts ...Option) *Server {
	if logger == nil {
		logger = log.Default()
	}
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		cache: cache,
		log:   logger,
		now:   time.Now,
		base:  base,
		stop:  stop,
		runs:  make(map[string]*run),
	}
	for _, o := range opts {
		o(s)
	}
	if s.metrics != nil {
		if s.cache != nil {
			s.cache.Instrument(s.metrics)
		}
		reg := s.metrics.Registry()
		s.httpReqs = reg.CounterVec("http_requests_total", "HTTP requests served, by route pattern and status code.", "endpoint", "code")
		s.httpLat = reg.HistogramVec("http_request_seconds", "HTTP request latency, by route pattern.", nil, "endpoint")
		s.httpInFlight = reg.Gauge("http_in_flight", "HTTP requests currently being served.")
		s.evictions = reg.CounterVec("cache_evictions_total", "Entries evicted from the daemon's bounded stores, by store and reason.", "store", "reason")
		s.runEvents = reg.Counter("onesd_hub_events_total", "Progress events logged by runs (once each, however many clients follow).")
		s.streamClients = reg.Gauge("onesd_stream_clients", "Stream handlers currently connected across all runs.")
		s.authFails = reg.Counter("onesd_auth_failures_total", "Requests rejected 401 for a missing or invalid bearer token.")
		s.rateLimited = reg.CounterVec("onesd_rate_limited_total", "Requests rejected 429 by the per-endpoint token buckets.", "endpoint")
		reg.GaugeFunc("onesd_run_table_size", "Runs currently held in the run table (all states).",
			func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.runs)) })
		for _, state := range []string{StatusRunning, StatusDone, StatusFailed, StatusCancelled} {
			reg.GaugeFunc("onesd_runs", "Runs in the run table, by lifecycle state.",
				func() float64 { return float64(s.countRuns(state)) }, "state", state)
		}
	}
	if s.cfg.BreakerBacklog > 0 {
		s.breaker = &breaker{
			maxBacklog: s.cfg.BreakerBacklog,
			now:        func() time.Time { return s.now() },
			backlog:    func() int { return s.countRuns(StatusRunning) },
		}
		if s.metrics != nil {
			reg := s.metrics.Registry()
			s.breaker.rejected = reg.Counter("onesd_breaker_rejected_total", "Run creations shed 503 by the compute-backlog circuit breaker.")
			s.breaker.transitions = reg.CounterVec("onesd_breaker_transitions_total", "Circuit-breaker state transitions, by destination state.", "to")
			s.breaker.stateGauge = reg.Gauge("onesd_breaker_state", "Circuit-breaker state: 0 closed, 2 open.")
		}
	}
	return s
}

// countRuns reports how many runs are currently in the given state.
func (s *Server) countRuns(state string) int {
	n := 0
	for _, r := range s.list() {
		if st, _ := r.snapshot(); st.Status == state {
			n++
		}
	}
	return n
}

// draining reports whether Shutdown has begun (GET /readyz turns 503).
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// start validates the spec, registers a run and launches its goroutine.
// Registering also sweeps the bounded run table, so a capped daemon
// evicts old finished runs exactly when new work arrives.
func (s *Server) start(spec RunSpec) (*run, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	s.seq++
	id := fmt.Sprintf("run-%06d", s.seq)
	runCtx, cancel := context.WithCancel(s.base)
	r := newRun(id, spec, cancel, s.now(), s.runEvents)
	sessOpts := spec.options(r, s.cache)
	if s.metrics != nil {
		sessOpts = append(sessOpts, ones.WithMetrics(s.metrics))
	}
	sess, err := ones.New(sessOpts...)
	if err != nil {
		s.seq-- // the id was never exposed
		s.mu.Unlock()
		cancel()
		return nil, err
	}
	s.runs[id] = r
	s.order = append(s.order, id)
	s.sweepRunsLocked()
	s.wg.Add(1)
	s.mu.Unlock()

	// Trace the run under its ID; GET /v1/runs/{id}/trace serves the tree.
	// A nil metrics sink passes runCtx through untouched.
	traceCtx, endTrace := s.metrics.StartTrace(runCtx, id, "run "+id)
	go func() {
		defer s.wg.Done()
		defer cancel()
		res, raw, err := sess.RunJSON(traceCtx)
		endTrace()
		r.finish(res, raw, err, runCtx.Err() != nil)
		if err != nil && runCtx.Err() == nil {
			s.log.Printf("serve: %s failed: %v", id, err)
		}
	}()
	return r, nil
}

// sweepRunsLocked evicts the oldest finished runs under Server.mu while
// the table exceeds MaxRuns. In-flight runs are NEVER evicted (cancelling
// live work to make room would turn a burst into data loss), so the
// table can transiently exceed the cap while every excess run is still
// executing; the admission breaker is the backstop for that regime.
func (s *Server) sweepRunsLocked() {
	limit := s.cfg.MaxRuns
	if limit <= 0 || len(s.runs) <= limit {
		return
	}
	// Snapshot the ids: dropRunLocked rewrites s.order in place.
	ids := append([]string(nil), s.order...)
	for _, id := range ids { // creation order: oldest finished first
		if len(s.runs) <= limit {
			break
		}
		if r, ok := s.runs[id]; ok && r.isFinished() {
			s.dropRunLocked(id)
		}
	}
}

// dropRunLocked removes one run from the table (Server.mu held) and
// counts the eviction. Streams already attached keep their run pointer
// and finish their replay undisturbed; new lookups 404.
func (s *Server) dropRunLocked(id string) {
	delete(s.runs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.evictions.With("runtable", "cap").Inc()
}

// get looks up a run by ID, first sweeping the bounded table: a run that
// finished after the last insert may have left the table over its cap.
func (s *Server) get(id string) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepRunsLocked()
	r, ok := s.runs[id]
	return r, ok
}

// list returns the runs in creation order (sweeping the bounded table
// first, like get).
func (s *Server) list() []*run {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepRunsLocked()
	out := make([]*run, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.runs[id])
	}
	return out
}

// Shutdown stops accepting runs, cancels every in-flight run (they abort
// mid-cell) and waits — up to ctx — for the run goroutines to retire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}
