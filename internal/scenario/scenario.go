package scenario

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnknown is wrapped by Get for unknown names; match it with
// errors.Is.
var ErrUnknown = errors.New("scenario: unknown scenario")

// Spec is a named description of how the world changes during a run:
// the arrival process a trace is generated from and the capacity
// timeline the cluster follows. Experiments compose scenarios by name —
// a simulation cell is (scheduler, capacity, trace seed, scenario).
type Spec struct {
	// Name is the flag-facing identifier ("steady", "diurnal", …).
	Name string
	// Title is a one-line description for listings.
	Title string
	// Arrival shapes the workload trace (zero ⇒ stationary Poisson at
	// the trace config's rate).
	Arrival ArrivalSpec
	// Capacity mutates the cluster during the run (zero ⇒ fixed).
	Capacity CapacitySpec
}

// Built-in scenario names.
const (
	Steady      = "steady"
	Diurnal     = "diurnal"
	Burst       = "burst"
	HeavyTail   = "heavy-tail"
	Elastic     = "elastic"
	Spot        = "spot"
	NodeFailure = "node-failure"
	RackDrain   = "rack-drain"
	MTBFDrain   = "mtbf-drain"
)

// builtins are the known scenarios, in name order. Timescales follow the
// evaluation workload (interarrival ~12 s, JCTs of hundreds of seconds,
// makespans of a few thousand): each scenario perturbs the world several
// times within one run without making it unschedulable. Names must not
// contain "+", which Get reserves for composition.
var builtins = []Spec{
	{
		Name:    Burst,
		Title:   "5× arrival bursts of 60 s every 400 s over a quiet baseline",
		Arrival: ArrivalSpec{Kind: ArrivalBurst, BurstEvery: 400, BurstLen: 60, BurstFactor: 5},
	},
	{
		Name:    Diurnal,
		Title:   "sinusoidal arrival rate — compressed day/night load",
		Arrival: ArrivalSpec{Kind: ArrivalDiurnal, Period: 600, Amplitude: 0.8},
	},
	{
		Name:  Elastic,
		Title: "planned autoscaling: drain a quarter of the servers, later overshoot back",
		Capacity: CapacitySpec{
			Planned: []CapacityEvent{
				{Time: 240, Kind: CapacityLeave, Servers: 4, Pick: 0.999},
				{Time: 720, Kind: CapacityJoin, Servers: 6},
				{Time: 1500, Kind: CapacityLeave, Servers: 2, Pick: 0.999},
			},
			MinServers: 2,
		},
	},
	{
		Name:    HeavyTail,
		Title:   "Pareto interarrival times — clustered submissions, long lulls",
		Arrival: ArrivalSpec{Kind: ArrivalHeavyTail, Alpha: 1.5},
	},
	{
		Name:  MTBFDrain,
		Title: "stochastic rack failures every ~1200 s, each drained rack repaired after 900 s",
		Capacity: CapacitySpec{
			DrainMTBF:    1200,
			DrainRestock: 900,
			MinServers:   2,
		},
	},
	{
		Name:  NodeFailure,
		Title: "node failures every ~300 s, repaired after 900 s",
		Capacity: CapacitySpec{
			FailMTBF:   300,
			FailRepair: 900,
			MinServers: 2,
		},
	},
	{
		Name:  RackDrain,
		Title: "rack 1 drains whole at 600 s, powers back at 1800 s (no-op on single-rack clusters)",
		Capacity: CapacitySpec{
			Planned: []CapacityEvent{
				{Time: 600, Kind: CapacityRackDrain, Rack: 1},
				{Time: 1800, Kind: CapacityJoin, Restocks: CapacityRackDrain},
			},
			MinServers: 1,
		},
	},
	{
		Name:  Spot,
		Title: "spot-instance preemptions every ~400 s, capacity restocked after 800 s",
		Capacity: CapacitySpec{
			PreemptMTBF:    400,
			PreemptRestock: 800,
			MinServers:     2,
		},
	},
	{
		Name:  Steady,
		Title: "fixed cluster, stationary Poisson arrivals (the paper's testbed)",
	},
}

// Lookup returns the named scenario.
func Lookup(name string) (Spec, bool) {
	for _, s := range builtins {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Get returns the named scenario or an error listing the known names.
// Names containing "+" compose on the fly: Get("diurnal+spot") merges
// the two known specs through Compose, so any consumer (experiment
// cells, tracegen flags, the public SDK) can model combined worlds
// without listing every pairing.
func Get(name string) (Spec, error) {
	if strings.Contains(name, "+") {
		return Compose(strings.Split(name, "+")...)
	}
	if s, ok := Lookup(name); ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("%w %q (known: %v)", ErrUnknown, name, Names())
}

// Names returns the known scenario names, sorted.
func Names() []string {
	names := make([]string, len(builtins))
	for i, s := range builtins {
		names[i] = s.Name
	}
	return names
}

// Specs returns every known scenario sorted by name.
func Specs() []Spec { return append([]Spec(nil), builtins...) }
