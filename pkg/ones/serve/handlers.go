package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
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

// writeJSON writes v as one line of compact JSON: indenting a Result
// costs more CPU than encoding it, and `jq .` pretty-prints client-side.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeRun writes the run's status view. A done run that holds the
// shared JSON of its Result is spliced instead of encoded: the view
// without its Result, less the closing brace, then "result", a copy of
// the shared bytes and the brace. A done run has no Error, so result is
// the last field RunStatus encodes and the body is byte for byte the
// one writeJSON writes for the view with its Result. Its length is known
// up front, so it goes out with a Content-Length.
func writeRun(w http.ResponseWriter, code int, r *run) {
	st, raw := r.snapshot()
	if raw == nil {
		writeJSON(w, code, st)
		return
	}
	head, err := json.Marshal(st)
	w.Header().Set("Content-Type", "application/json")
	if err != nil { // as in writeJSON: no body
		w.WriteHeader(code)
		return
	}
	head = append(head[:len(head)-1], `,"result":`...)
	const tail = "}\n"
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(raw)+len(tail)))
	w.WriteHeader(code)
	w.Write(head)
	w.Write(raw)
	io.WriteString(w, tail)
}

func (s *Server) handleCreate(w http.ResponseWriter, req *http.Request) {
	var spec RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		// One spec per body: a second object or stray text after it is
		// rejected like an unknown field, not silently dropped.
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("trailing data after the spec")
		}
	}
	if err != nil {
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
	writeRun(w, http.StatusCreated, r)
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	runs := s.list()
	out := make([]RunStatus, len(runs))
	for i, r := range runs {
		out[i], _ = r.snapshot()
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
	writeRun(w, http.StatusOK, r)
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	r.cancel() // idempotent; a finished run is unaffected
	writeRun(w, http.StatusAccepted, r)
}

// handleStream replays the run's progress log and follows it live as
// NDJSON (one JSON object per line, flushed after each batch), ending
// with a terminal {"kind":"end",...} line once the run finishes. Every
// client reads the run's one log through its own cursor: the run never
// waits on a client, a client that stalls still receives every event
// and the end line, and a client that disconnects just stops reading.
func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	s.streamClients.Inc()
	defer s.streamClients.Dec()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	for next := 0; ; {
		events, grew, finished := r.since(next)
		for _, p := range events {
			if err := enc.Encode(toStreamEvent(p)); err != nil {
				return
			}
		}
		next += len(events)
		if finished {
			st, _ := r.snapshot()
			enc.Encode(streamEvent{Kind: "end", Status: st.Status, Error: st.Error, Done: st.CellsDone, Total: st.CellsTotal})
		}
		if flusher != nil {
			flusher.Flush()
		}
		if finished {
			return
		}
		select {
		case <-req.Context().Done():
			return
		case <-grew:
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
