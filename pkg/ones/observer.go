package ones

import "time"

// ProgressKind classifies a progress event.
type ProgressKind string

// Progress event kinds, in the order a run emits them.
const (
	// KindRunStart opens a batch of simulation work; Total counts the
	// cells the batch plans to touch (cached cells may never surface as
	// cell events).
	KindRunStart ProgressKind = "run-start"
	// KindCellStart marks one simulation cell beginning to execute on a
	// worker (cache hits emit no cell events).
	KindCellStart ProgressKind = "cell-start"
	// KindCellDone marks one simulation cell finishing; Result carries
	// its live metrics and Elapsed its wall time.
	KindCellDone ProgressKind = "cell-done"
	// KindExperimentStart and KindExperimentDone bracket the rendering
	// of one named experiment.
	KindExperimentStart ProgressKind = "experiment-start"
	KindExperimentDone  ProgressKind = "experiment-done"
	// KindRunDone closes the batch opened by KindRunStart.
	KindRunDone ProgressKind = "run-done"
)

// Progress is one streamed progress event. Fields beyond Kind are
// populated where meaningful: cell events carry the cell coordinates
// (and, on completion, live metrics); experiment events carry the
// experiment name; Done/Total count executed cells against the batch
// plan.
type Progress struct {
	Kind ProgressKind

	// Cell coordinates (cell-start, cell-done).
	Cell      string // compact render, e.g. "ones/64gpu/trace1/steady"
	Scheduler string
	Capacity  int
	TraceSeed int64
	Scenario  string

	// Experiment name (experiment-start, experiment-done).
	Experiment string

	// Elapsed wall time (cell-done, experiment-done, run-done).
	Elapsed time.Duration

	// Result carries the finished cell's metrics (cell-done only) — the
	// live view a dashboard renders while the batch is still running.
	Result *Result

	// Done counts cells executed so far; Total the cells the current
	// batch planned (0 when unknown). Cached cells count as done
	// immediately, so Done can jump.
	Done, Total int
}

// Observer receives streamed progress events. Callbacks may arrive from
// multiple goroutines concurrently (one per busy worker) but all
// complete before the Session method that triggered them returns, so an
// Observer needs no draining protocol of its own.
type Observer interface {
	Observe(p Progress)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(p Progress)

// Observe calls f.
func (f ObserverFunc) Observe(p Progress) { f(p) }
