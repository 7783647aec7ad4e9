package ones

import (
	"repro/internal/engine"
	"repro/internal/simulator"
	"repro/internal/stats"
)

// Job is the public view of one completed job's metrics.
type Job struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Submit float64 `json:"submit_s"`
	Start  float64 `json:"start_s"` // first time the job held a GPU (-1 if it never ran)
	Done   float64 `json:"done_s"`
	JCT    float64 `json:"jct_s"`   // Done − Submit
	Exec   float64 `json:"exec_s"`  // seconds holding GPUs
	Queue  float64 `json:"queue_s"` // JCT − Exec
}

// Event is one entry of the optional scheduling event log (see
// WithEventLog). Kinds: "arrive", "start", "rescale", "preempt",
// "complete", "evict", "capacity".
type Event struct {
	Time  float64 `json:"time_s"`
	Kind  string  `json:"kind"`
	Job   int     `json:"job"`
	GPUs  int     `json:"gpus"`  // allocation after the event
	Batch int     `json:"batch"` // global batch after the event
}

// Distribution summarizes a per-job duration: the five-number box
// statistics of the paper's Figure 15d–f.
type Distribution struct {
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// RackCapacity summarizes one rack (failure domain) of the initial
// cluster topology.
type RackCapacity struct {
	Rack    int `json:"rack"`
	Servers int `json:"servers"`
	GPUs    int `json:"gpus"`
}

// Result is the stable public view of one simulation run. It marshals
// cleanly to JSON (see cmd/onesim -json) and carries both per-job
// metrics and the summary statistics the paper's figures report.
type Result struct {
	Scheduler string `json:"scheduler"` // display name, e.g. "ONES"
	Scenario  string `json:"scenario"`
	// Autoscaler is the reactive controller policy the run was under (see
	// WithAutoscaler); empty when no controller ran.
	Autoscaler string `json:"autoscaler,omitempty"`
	Capacity   int    `json:"capacity_gpus"` // initial cluster capacity
	// Shape is the heterogeneous cluster shape the run simulated (see
	// WithShape); empty for homogeneous topologies.
	Shape string `json:"shape,omitempty"`
	// Racks is the initial per-rack capacity, ascending by rack id. A
	// homogeneous WithTopology cluster is one rack.
	Racks     []RackCapacity `json:"racks,omitempty"`
	TraceSeed int64          `json:"trace_seed"`

	Jobs []Job `json:"jobs"`

	Makespan  float64      `json:"makespan_s"`
	MeanJCT   float64      `json:"mean_jct_s"`
	MeanExec  float64      `json:"mean_exec_s"`
	MeanQueue float64      `json:"mean_queue_s"`
	JCT       Distribution `json:"jct_distribution"`

	// Utilization is the average busy fraction of the capacity actually
	// available at each instant (elastic scenarios shrink the
	// denominator while servers are away).
	Utilization        float64 `json:"utilization"`
	BusyGPUSeconds     float64 `json:"busy_gpu_seconds"`
	CapacityGPUSeconds float64 `json:"capacity_gpu_seconds,omitempty"`

	// Reconfigs counts deployed allocation changes (start/rescale/preempt).
	Reconfigs int `json:"reconfigs"`
	// Evictions counts jobs forced off their GPUs by server losses (the
	// scenario's failures, preemptions and drains), each later requeued.
	Evictions int `json:"evictions,omitempty"`
	// RackDrainEvictions is the subset of Evictions caused by rack-level
	// drains — whole failure domains going away at once.
	RackDrainEvictions int `json:"rack_drain_evictions,omitempty"`
	// CapacityEvents counts applied cluster topology changes.
	CapacityEvents int `json:"capacity_events,omitempty"`
	// ScaleUps / ScaleDowns count the autoscaling controller's applied
	// grow / shrink actions; AutoscaleEvents is their sum. All zero when
	// no autoscaler ran (scenario-driven capacity changes count only in
	// CapacityEvents).
	ScaleUps        int `json:"scale_ups,omitempty"`
	ScaleDowns      int `json:"scale_downs,omitempty"`
	AutoscaleEvents int `json:"autoscale_events,omitempty"`

	// Truncated is true when the simulation's time cap elapsed with jobs
	// still unfinished; their metrics are absent from Jobs.
	Truncated  bool `json:"truncated,omitempty"`
	Unfinished int  `json:"unfinished,omitempty"`

	// Events is the scheduling event log (only with WithEventLog).
	Events []Event `json:"events,omitempty"`
}

// FractionDoneWithin returns the fraction of completed jobs whose JCT is
// at most the given number of seconds (the paper's "jobs completed
// within 200 s" headline).
func (r *Result) FractionDoneWithin(seconds float64) float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	n := 0
	for _, j := range r.Jobs {
		if j.JCT <= seconds {
			n++
		}
	}
	return float64(n) / float64(len(r.Jobs))
}

// newResult converts an internal simulation result into the public view
// of its cell, which must be resolved (engine.Cell.Normalize): every
// field read here is then a CellKey dimension, so cells that share a key
// share their Result's bytes.
func newResult(cell engine.Cell, res *simulator.Result) *Result {
	out := &Result{
		Scheduler:          res.Scheduler,
		Scenario:           cell.Scenario,
		Autoscaler:         cell.Autoscaler,
		Capacity:           cell.Capacity,
		Shape:              cell.Shape,
		TraceSeed:          cell.TraceSeed,
		Jobs:               make([]Job, len(res.Jobs)),
		Makespan:           res.Makespan,
		MeanJCT:            res.MeanJCT(),
		MeanExec:           res.MeanExec(),
		MeanQueue:          res.MeanQueue(),
		Utilization:        res.Utilization(),
		BusyGPUSeconds:     res.BusyGPUSeconds,
		CapacityGPUSeconds: res.CapacityGPUSeconds,
		Reconfigs:          res.Reconfigs,
		Evictions:          res.Evictions,
		RackDrainEvictions: res.RackDrainEvictions,
		CapacityEvents:     res.CapacityEvents,
		ScaleUps:           res.ScaleUps,
		ScaleDowns:         res.ScaleDowns,
		AutoscaleEvents:    res.AutoscaleEvents,
		Truncated:          res.Truncated,
		Unfinished:         res.Unfinished,
	}
	if topo, err := cell.Topology(); err == nil && topo.NumServers() > 0 {
		for _, rc := range topo.RackSummary() {
			out.Racks = append(out.Racks, RackCapacity{Rack: rc.Rack, Servers: rc.Servers, GPUs: rc.GPUs})
		}
	}
	for i, j := range res.Jobs {
		out.Jobs[i] = Job{
			ID:     int(j.ID),
			Name:   j.Name,
			Submit: j.Submit,
			Start:  j.Start,
			Done:   j.Done,
			JCT:    j.JCT,
			Exec:   j.Exec,
			Queue:  j.Queue,
		}
	}
	box := stats.Box(res.JCTs())
	out.JCT = Distribution{Min: box.Min, Q1: box.Q1, Median: box.Median, Q3: box.Q3, Max: box.Max}
	if len(res.Events) > 0 { // an empty log stays nil
		out.Events = make([]Event, len(res.Events))
		for i, ev := range res.Events {
			out.Events[i] = Event{
				Time:  ev.Time,
				Kind:  string(ev.Kind),
				Job:   int(ev.Job),
				GPUs:  ev.GPUs,
				Batch: ev.Batch,
			}
		}
	}
	return out
}
