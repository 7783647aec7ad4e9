package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/pkg/ones"
)

// RunStatus is the JSON view of one run (POST /v1/runs response and
// GET /v1/runs/{id}).
type RunStatus struct {
	ID      string    `json:"id"`
	Status  string    `json:"status"` // running | done | failed | cancelled
	Created time.Time `json:"created"`
	Spec    RunSpec   `json:"spec"`
	// CellsDone/CellsTotal mirror the latest progress event (0/0 before
	// the first event arrives).
	CellsDone  int          `json:"cells_done"`
	CellsTotal int          `json:"cells_total"`
	Result     *ones.Result `json:"result,omitempty"` // status "done" only
	Error      string       `json:"error,omitempty"`  // status "failed"/"cancelled"
}

// streamEvent is one NDJSON line of GET /v1/runs/{id}/stream: the
// progress events a ones.Observer sees, plus a terminal "end" line
// carrying the run's final status.
type streamEvent struct {
	Kind       string       `json:"kind"`
	Cell       string       `json:"cell,omitempty"`
	Scheduler  string       `json:"scheduler,omitempty"`
	Capacity   int          `json:"capacity,omitempty"`
	TraceSeed  int64        `json:"trace_seed,omitempty"`
	Scenario   string       `json:"scenario,omitempty"`
	Experiment string       `json:"experiment,omitempty"`
	ElapsedS   float64      `json:"elapsed_s,omitempty"`
	Result     *ones.Result `json:"result,omitempty"`
	Done       int          `json:"done"`
	Total      int          `json:"total"`
	// Terminal "end" line only.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

func toStreamEvent(p ones.Progress) streamEvent {
	return streamEvent{
		Kind:       string(p.Kind),
		Cell:       p.Cell,
		Scheduler:  p.Scheduler,
		Capacity:   p.Capacity,
		TraceSeed:  p.TraceSeed,
		Scenario:   p.Scenario,
		Experiment: p.Experiment,
		ElapsedS:   p.Elapsed.Seconds(),
		Result:     p.Result,
		Done:       p.Done,
		Total:      p.Total,
	}
}

// Handler returns the daemon's route table. Every /v1 route runs behind
// the admission chain — bearer auth, then its own token-bucket rate
// limit, and (run creation only) the compute-backlog breaker — each a
// no-op when its Config field is unset. The probe endpoints (/healthz,
// /readyz) and /metrics bypass admission so load balancers and scrapers
// need no credentials and are never shed. Every route except /metrics
// is wrapped with the per-endpoint HTTP metrics when the server was
// built WithMetrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	auth := s.authMiddleware()
	route := func(pattern string, h http.HandlerFunc, extra ...middleware) {
		mws := append([]middleware{auth, s.rateLimitMiddleware(pattern)}, extra...)
		mux.Handle(pattern, s.instrumented(pattern, chain(h, mws...)))
	}
	open := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrumented(pattern, h))
	}
	route("POST /v1/runs", s.handleCreate, s.breakerMiddleware())
	route("GET /v1/runs", s.handleList)
	route("GET /v1/runs/{id}", s.handleGet)
	route("DELETE /v1/runs/{id}", s.handleCancel)
	route("GET /v1/runs/{id}/stream", s.handleStream)
	route("GET /v1/runs/{id}/trace", s.handleTrace)
	route("GET /v1/schedulers", s.handleSchedulers)
	route("GET /v1/scenarios", s.handleScenarios)
	route("GET /v1/autoscalers", s.handleAutoscalers)
	route("GET /v1/experiments", s.handleExperiments)
	route("GET /v1/cache", s.handleCache)
	route("DELETE /v1/cache", s.handleCacheReset)
	open("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	open("GET /readyz", s.handleReady)
	// /metrics is deliberately NOT instrumented: scrapes every few
	// seconds would dominate the request series it reports.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (r *run) statusView() RunStatus {
	status, res, errMsg, done, total := r.snapshot()
	return RunStatus{
		ID:         r.ID,
		Status:     status,
		Created:    r.Created,
		Spec:       r.Spec,
		CellsDone:  done,
		CellsTotal: total,
		Result:     res,
		Error:      errMsg,
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, req *http.Request) {
	var spec RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad run spec: %w", err))
		return
	}
	r, err := s.start(spec)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrShuttingDown):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ones.ErrUnknownScheduler), errors.Is(err, ones.ErrUnknownScenario),
			errors.Is(err, ones.ErrUnknownAutoscaler):
			code = http.StatusUnprocessableEntity
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, r.statusView())
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	runs := s.list()
	out := make([]RunStatus, len(runs))
	for i, r := range runs {
		out[i] = r.statusView()
		// Listing stays O(#runs): the full Result (per-job metrics, event
		// logs) is only served by GET /v1/runs/{id}.
		out[i].Result = nil
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, r.statusView())
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	r.cancel() // idempotent; a finished run is unaffected
	writeJSON(w, http.StatusAccepted, r.statusView())
}

// handleStream replays the run's progress history and follows it live as
// NDJSON (one JSON object per line, flushed per event), ending with a
// terminal {"kind":"end",...} line once the run finishes. All clients
// following one run share its broadcast hub — each event is recorded
// once and fanned out through bounded per-client buffers, so a slow
// client is disconnected (its buffer overflows) instead of wedging the
// hub, and a client that disconnects itself just stops receiving; the
// run is unaffected either way.
func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Atomic against the broadcast: the snapshot holds every event so
	// far, the subscription every later one — no gap, no duplicate.
	history, sub := r.hub.subscribe()
	if sub != nil {
		defer r.hub.unsubscribe(sub)
	}
	for _, p := range history {
		if err := enc.Encode(toStreamEvent(p)); err != nil {
			return
		}
	}
	if len(history) > 0 && flusher != nil {
		flusher.Flush()
	}
	writeEnd := func() {
		status, _, errMsg, done, total := r.snapshot()
		enc.Encode(streamEvent{Kind: "end", Status: status, Error: errMsg, Done: done, Total: total})
		if flusher != nil {
			flusher.Flush()
		}
	}
	if sub == nil {
		// The run had already finished: the snapshot was the whole story.
		writeEnd()
		return
	}
	clientGone := req.Context().Done()
	for {
		select {
		case <-clientGone:
			return
		case p, ok := <-sub.ch:
			if !ok {
				if r.hub.wasDropped(sub) {
					// Too slow: the hub already disconnected us. Cut the
					// response without a terminal line — the client sees
					// a truncated stream, the run sees nothing at all.
					return
				}
				writeEnd()
				return
			}
			if err := enc.Encode(toStreamEvent(p)); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

func (s *Server) handleSchedulers(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"schedulers": ones.Schedulers(),
		"paper":      ones.PaperSchedulers(),
	})
}

func (s *Server) handleScenarios(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": ones.Scenarios()})
}

func (s *Server) handleAutoscalers(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"autoscalers": ones.Autoscalers()})
}

func (s *Server) handleExperiments(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": ones.Experiments()})
}

func (s *Server) handleCache(w http.ResponseWriter, req *http.Request) {
	if s.cache == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"dir":     s.cache.Dir(),
		"stats":   s.cache.Stats(),
	})
}

// handleCacheReset (DELETE /v1/cache) clears the shared in-memory memo
// and reports how many completed entries were dropped — the admin
// pressure valve for long-lived daemons. In-flight computations finish
// undisturbed and persisted cell files stay on disk, so the reset can
// cost recomputation (memory-only cache) or a disk reload, never
// correctness.
func (s *Server) handleCacheReset(w http.ResponseWriter, req *http.Request) {
	if s.cache == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false, "dropped": 0})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"dropped": s.cache.Reset(),
	})
}
