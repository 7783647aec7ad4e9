package ones

import (
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Trace shapes the generated workload (the paper's Table 2 job mix).
// The zero value is the paper-scale default: 120 jobs, 12 s mean
// interarrival, requests capped at 8 GPUs, trace seed = the session's
// master seed.
type Trace struct {
	// Jobs is the number of submissions (0 ⇒ 120; at most 65536).
	Jobs int
	// MeanInterarrival is the mean seconds between arrivals, 1/λ0
	// (0 ⇒ 12). Non-stationary scenarios modulate this base rate.
	MeanInterarrival float64
	// MaxGPUs caps the user-requested worker count (0 ⇒ 8).
	MaxGPUs int
	// Seed generates the job stream (0 ⇒ the session's master seed).
	// Sessions sharing a trace seed replay the identical submissions —
	// the pairing cross-scheduler comparisons rely on.
	Seed int64
}

// params overlays the trace's set fields on p. New and GenerateTrace
// both map a Trace onto engine parameters through it; the seed maps onto
// the cell (engine.Cell.TraceSeed).
func (t Trace) params(p engine.Params) engine.Params {
	if t.Jobs > 0 {
		p.Jobs = t.Jobs
	}
	if t.MeanInterarrival > 0 {
		p.Interarrival = t.MeanInterarrival
	}
	if t.MaxGPUs > 0 {
		p.MaxGPUs = t.MaxGPUs
	}
	return p
}

// TraceData is a generated (or decoded) workload trace: an opaque,
// validated job stream that can be summarized or serialized for later
// replay. The JSON form is stable across versions.
type TraceData struct {
	trace *workload.Trace
}

// GenerateTrace builds the deterministic job stream the given trace
// shape describes, under the named scenario's arrival process ("" or
// "steady" ⇒ the paper's stationary Poisson arrivals). Composed names
// ("diurnal+spot") are accepted; unknown names fail wrapping
// ErrUnknownScenario.
func GenerateTrace(t Trace, scenarioName string) (*TraceData, error) {
	// Resolve the defaults as a session's cell does, so the trace is the
	// one a session with this Trace and scenario and the default master
	// seed simulates.
	p := t.params(engine.Params{}).Normalize()
	cell := engine.Cell{TraceSeed: t.Seed, Scenario: scenarioName}.Normalize(p)
	spec, err := scenario.Get(cell.Scenario)
	if err != nil {
		return nil, err
	}
	cfg := p.TraceConfig(cell.TraceSeed)
	cfg.Arrival = spec.Arrival
	tr, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &TraceData{trace: tr}, nil
}

// DecodeTrace parses and validates a trace previously serialized with
// JSON.
func DecodeTrace(data []byte) (*TraceData, error) {
	tr, err := workload.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &TraceData{trace: tr}, nil
}

// JSON serializes the trace for storage or replay.
func (d *TraceData) JSON() ([]byte, error) { return d.trace.Encode() }

// Jobs returns the number of submissions in the trace.
func (d *TraceData) Jobs() int { return len(d.trace.Jobs) }

// TraceSummary aggregates a trace's composition (the Table 2 view).
type TraceSummary struct {
	Jobs       int            `json:"jobs"`
	Makespan   float64        `json:"makespan_s"` // submit time of the last job
	MeanGPUReq float64        `json:"mean_gpu_req"`
	MaxGPUReq  int            `json:"max_gpu_req"` // largest single job request
	ByClass    map[string]int `json:"by_class"`
	ByModel    map[string]int `json:"by_model"`
}

// Summary computes the trace's composition statistics.
func (d *TraceData) Summary() TraceSummary {
	s := d.trace.Summarize()
	out := TraceSummary{
		Jobs:       s.Jobs,
		Makespan:   s.Makespan,
		MeanGPUReq: s.MeanGPUReq,
		ByClass:    make(map[string]int, len(s.ByClass)),
		ByModel:    make(map[string]int, len(s.ByModel)),
	}
	for class, n := range s.ByClass {
		out.ByClass[string(class)] = n
	}
	for model, n := range s.ByModel {
		out.ByModel[model] = n
	}
	for _, j := range d.trace.Jobs {
		if j.ReqGPUs > out.MaxGPUReq {
			out.MaxGPUReq = j.ReqGPUs
		}
	}
	return out
}
