// Package engine is the parallel experiment engine behind cmd/experiments
// and the benchmarks: named, self-describing experiments (one per paper
// figure/table; internal/experiments lists them) executed over a sharded,
// cached pool of simulation runs.
//
// The unit of simulation work is a Cell — one (scheduler, capacity,
// trace-seed) combination. Experiments declare the cells they consume;
// the Runner fans independent cells across a worker pool, memoizes every
// result in a shared cache (so Fig 15, Fig 17, Fig 18 and Table 4 share
// rather than repeat the 64-GPU comparison runs), and derives each cell's
// scheduler seed deterministically from the master seed — identical
// master seeds produce byte-identical experiment output at any worker
// count.
package engine

import "repro/internal/workload"

// Params parameterize the experiment suite.
type Params struct {
	Seed         int64
	Jobs         int     // trace length for Fig 15/17/18
	Interarrival float64 // seconds between arrivals
	MaxGPUs      int     // largest user GPU request in generated traces (0 ⇒ 8)
	Population   int     // ONES population size K
	MutationRate float64 // ONES mutation rate θ override (0 ⇒ scheduler default)
	// Capacities selects WHICH cells an experiment renders, not what any
	// one cell computes — each cell already keys its own Capacity.
	//ones:nokey experiment-rendering parameter: per-cell capacity is keyed as cap=
	Capacities []int // GPU counts for the scalability sweep
	//ones:nokey live-runtime (Fig 16) knob: never reaches a simulated cell
	ParamScale int // live-runtime model-size divisor (Fig 16)
	//ones:nokey experiment-rendering parameter: curve sampling happens after the cells are computed
	CFPoints int // samples per cumulative-frequency curve
	// Workers bounds the number of concurrently executing simulation
	// cells (0 ⇒ GOMAXPROCS). Results are identical at any setting.
	//ones:nokey pure throughput knob: results are byte-identical at any worker count (pinned by the determinism tests)
	Workers int
	// RecordEvents retains the per-job scheduling event log on every
	// simulated cell's Result (off by default: the log is bulky).
	RecordEvents bool
}

// DefaultParams reproduce the paper-scale experiments (minutes of wall
// time: the evolutionary search is the dominant cost).
func DefaultParams() Params {
	return Params{
		Seed:         1,
		Jobs:         120,
		Interarrival: 12,
		MaxGPUs:      8,
		Population:   32,
		Capacities:   []int{16, 32, 48, 64},
		ParamScale:   50,
		CFPoints:     12,
	}
}

// QuickParams shrink every experiment for smoke tests and benchmarks.
func QuickParams() Params {
	return Params{
		Seed:         1,
		Jobs:         30,
		Interarrival: 12,
		MaxGPUs:      8,
		Population:   10,
		Capacities:   []int{16, 64},
		ParamScale:   400,
		CFPoints:     8,
	}
}

// TraceConfig returns the workload configuration for the given trace
// seed. All cells sharing a trace seed replay the identical job stream —
// the pairing the Wilcoxon analysis of Table 4 requires.
func (p Params) TraceConfig(seed int64) workload.Config {
	maxGPUs := p.MaxGPUs
	if maxGPUs <= 0 {
		maxGPUs = 8
	}
	return workload.Config{
		Seed:             seed,
		NumJobs:          p.Jobs,
		MeanInterarrival: p.Interarrival,
		MaxReqGPUs:       maxGPUs,
	}
}

// PaperSchedulers are the names of the schedulers compared in
// Figure 15: ONES and the paper's three baselines.
func PaperSchedulers() []string {
	return []string{"ones", "drl", "tiresias", "optimus"}
}
