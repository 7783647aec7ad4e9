package schedulers

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/simulator"
)

// ErrUnknown is wrapped by New for unknown names; match it with
// errors.Is.
var ErrUnknown = errors.New("schedulers: unknown scheduler")

// Config carries the policy-independent knobs a scheduler factory may use.
// Factories ignore fields that do not apply to their policy.
type Config struct {
	// Seed drives any scheduler-internal randomness.
	Seed int64
	// ArrivalRate is the trace's job arrival rate λ (ONES's scale-down
	// penalty is derived from it).
	ArrivalRate float64
	// Population overrides ONES's population size K (0 ⇒ cluster size).
	Population int
	// MutationRate overrides ONES's θ (0 ⇒ default).
	MutationRate float64
	// Parallelism bounds scheduler-internal fan-out (ONES's evolution
	// loop; 0 ⇒ GOMAXPROCS). Purely a performance knob: results are
	// identical at any setting.
	Parallelism int
	// Obs, when non-nil, receives scheduler-internal telemetry (ONES's
	// evolution generation/candidate counters and throughput-memo hit
	// ratio). Out of band only: results are byte-identical with or
	// without it.
	Obs *obs.Registry
	// Span, when non-nil, is the parent span scheduler-internal tracing
	// hangs off (ONES records evolution-interval child spans). Out of
	// band only, like Obs.
	Span *obs.Span
}

// Factory constructs one scheduler instance from a Config.
type Factory func(cfg Config) simulator.Scheduler

// factories maps each flag-facing scheduler name ("ones", "drl", …) to
// its constructor. A new policy is its file plus one entry here.
var factories = map[string]Factory{
	"ones": func(cfg Config) simulator.Scheduler {
		o := NewONES(cfg.Seed, cfg.ArrivalRate)
		if cfg.Population > 0 {
			o.PopulationSize = cfg.Population
		}
		if cfg.MutationRate > 0 {
			o.MutationRate = cfg.MutationRate
		}
		o.Parallelism = cfg.Parallelism
		o.Obs = cfg.Obs
		o.Span = cfg.Span
		return o
	},
	"drl":      func(cfg Config) simulator.Scheduler { return NewDRL(cfg.Seed) },
	"tiresias": func(cfg Config) simulator.Scheduler { return NewTiresias() },
	"optimus":  func(cfg Config) simulator.Scheduler { return NewOptimus() },
	"fifo":     func(cfg Config) simulator.Scheduler { return NewFIFO() },
	"sjf":      func(cfg Config) simulator.Scheduler { return NewSJF() },
}

// New constructs the named scheduler, or errors listing the known names.
func New(name string, cfg Config) (simulator.Scheduler, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (known: %v)", ErrUnknown, name, Names())
	}
	return f(cfg), nil
}

// Has reports whether a scheduler is known under the given name.
func Has(name string) bool {
	_, ok := factories[name]
	return ok
}

// Names returns the known scheduler names, sorted.
func Names() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
