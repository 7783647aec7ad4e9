package ones

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// settings accumulate the functional options into the engine parameters
// and the session's cell, unresolved: New normalizes the cell through the
// engine once every option has applied.
type settings struct {
	params   engine.Params
	cell     engine.Cell
	trace    Trace
	observer Observer
	cache    *Cache
	metrics  *Metrics
	err      error // first option-validation failure, surfaced by New
}

// Option configures a Session under construction. Options are applied in
// order; later options override earlier ones.
type Option func(*settings)

func (s *settings) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// WithScheduler selects the scheduling policy by registry name ("ones",
// "drl", "tiresias", "optimus", "fifo", "sjf" — see Schedulers). The
// default is "ones".
func WithScheduler(name string) Option {
	return func(s *settings) { s.cell.Scheduler = name }
}

// WithScenario selects the world model by registry name (see Scenarios).
// Names joined with "+" compose: "diurnal+spot" simulates a spot-market
// day — diurnal arrivals over preemptible capacity. The default is
// "steady", the paper's fixed testbed.
func WithScenario(name string) Option {
	return func(s *settings) { s.cell.Scenario = name }
}

// WithAutoscaler attaches a reactive autoscaling controller by registry
// name (see Autoscalers). The controller observes cluster pressure at a
// fixed cadence and grows or shrinks the server fleet in a closed loop —
// no pre-planned capacity timeline. The default is "" (no controller).
func WithAutoscaler(name string) Option {
	return func(s *settings) { s.cell.Autoscaler = name }
}

// WithTopology shapes the cluster: servers homogeneous servers of
// gpusPerServer GPUs each, at most 65536 GPUs in all. The default is the
// paper's Longhorn testbed, 16 servers × 4 GPUs. For mixed fleets —
// different GPU counts per server, rack-level failure domains — use
// WithShape instead; the later of the two options wins.
func WithTopology(servers, gpusPerServer int) Option {
	return func(s *settings) {
		if servers <= 0 || gpusPerServer <= 0 {
			s.fail(fmt.Errorf("ones: WithTopology(%d, %d): both dimensions must be positive", servers, gpusPerServer))
			return
		}
		if servers > cluster.MaxGPUs/gpusPerServer {
			s.fail(fmt.Errorf("ones: WithTopology(%d, %d): more than %d GPUs", servers, gpusPerServer, cluster.MaxGPUs))
			return
		}
		s.cell.Capacity = servers * gpusPerServer
		s.cell.GPUsPer = gpusPerServer
		s.cell.Shape = ""
	}
}

// WithShape shapes a heterogeneous cluster from a shape string like
// "4x8,2x4": comma-separated COUNTxGPUS groups of identical servers,
// each group forming one rack (failure domain). Group order is
// significant — it fixes the GPU axis and the rack ids, so "4x8,2x4"
// and "2x4,4x8" are distinct clusters with distinct results. Rack-aware
// scenarios (e.g. "rack-drain") can take a whole group down at once;
// Result.Racks reports the per-rack capacity. A shape of more than 65536
// GPUs is rejected. WithShape overrides an earlier WithTopology (and
// vice versa — the later option wins).
func WithShape(shape string) Option {
	return func(s *settings) {
		topo, err := cluster.ParseShape(shape)
		if err != nil {
			s.fail(fmt.Errorf("ones: WithShape(%q): %w", shape, err))
			return
		}
		// Store the canonical rendering so spelling variants of one
		// topology ("4x8, 2x4" vs "4x8,2x4") share a simulation cell and
		// a cache entry. Group order is preserved — it is semantic.
		s.cell.Shape = topo.Shape()
		s.cell.Capacity, s.cell.GPUsPer = 0, 0
	}
}

// WithTrace shapes the generated workload (see Trace). Zero fields keep
// their defaults.
func WithTrace(t Trace) Option {
	return func(s *settings) {
		if t.Jobs < 0 || t.MeanInterarrival < 0 || t.MaxGPUs < 0 {
			s.fail(fmt.Errorf("ones: WithTrace(%+v): negative field", t))
			return
		}
		s.trace = t
	}
}

// WithSeed sets the master RNG seed (default 1). Traces and per-run
// scheduler seeds derive from it deterministically: the same seed yields
// byte-identical results at any worker count.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.params.Seed = seed }
}

// WithWorkers bounds how many simulations run concurrently (0 or unset ⇒
// GOMAXPROCS). The worker slots a cell finds free when it starts also run
// ONES's evolutionary search inside that cell, so for a lone cell n bounds
// the evolution fan-out. Purely a throughput knob — results are identical
// at any setting.
func WithWorkers(n int) Option {
	return func(s *settings) {
		if n < 0 {
			s.fail(fmt.Errorf("ones: WithWorkers(%d): negative worker count", n))
			return
		}
		s.params.Workers = n
	}
}

// WithPopulation overrides ONES's evolutionary population size K.
// Smaller populations run faster with slightly noisier search. New
// rejects an ONES session whose K times GPUs exceeds 2^20.
func WithPopulation(k int) Option {
	return func(s *settings) {
		if k < 0 {
			s.fail(fmt.Errorf("ones: WithPopulation(%d): negative population", k))
			return
		}
		s.params.Population = k
	}
}

// WithMutationRate overrides ONES's mutation rate θ (0 keeps the
// scheduler default).
func WithMutationRate(theta float64) Option {
	return func(s *settings) {
		if theta < 0 || theta > 1 {
			s.fail(fmt.Errorf("ones: WithMutationRate(%v): want 0 ≤ θ ≤ 1", theta))
			return
		}
		s.params.MutationRate = theta
	}
}

// WithCapacities sets the GPU counts the capacity-sweep experiments
// (fig17, fig18) simulate. Ignored by single runs, which size the
// cluster from WithTopology.
func WithCapacities(gpus ...int) Option {
	return func(s *settings) {
		for _, g := range gpus {
			if g <= 0 {
				s.fail(fmt.Errorf("ones: WithCapacities(%v): capacities must be positive", gpus))
				return
			}
		}
		s.params.Capacities = append([]int(nil), gpus...)
	}
}

// WithEventLog retains the per-job scheduling event log on every Result
// (off by default: the log is bulky).
func WithEventLog(record bool) Option {
	return func(s *settings) { s.params.RecordEvents = record }
}

// WithObserver streams progress and live metrics to obs (see Observer).
// Observer callbacks may come from multiple goroutines but all complete
// before the triggering Session method returns.
func WithObserver(obs Observer) Option {
	return func(s *settings) { s.observer = obs }
}

// WithQuickScale switches the experiment scale to smoke-test size: short
// traces, small populations, two sweep capacities. Like any option,
// later options override it field by field (and it overrides earlier
// WithTrace/WithPopulation/WithCapacities settings).
func WithQuickScale() Option {
	return func(s *settings) {
		q := engine.QuickParams()
		s.params.Jobs = q.Jobs
		s.params.Interarrival = q.Interarrival
		s.params.Population = q.Population
		s.params.Capacities = q.Capacities
		s.params.ParamScale = q.ParamScale
		s.params.CFPoints = q.CFPoints
		s.trace = Trace{}
	}
}
