package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrIncompatible is wrapped by Compose when two parts claim the same
// dimension of the world (two arrival processes, two failure processes,
// two capacity timelines touching the same server-removal kind, …);
// match it with errors.Is.
var ErrIncompatible = errors.New("scenario: incompatible composition")

// capacityClaims returns the server-removal kinds a spec's capacity
// model touches — through planned events (removals and the restock
// joins that return them) or through its stochastic processes. Two
// composed parts claiming the same kind would cross-talk: the simulator
// pools removed servers per kind, so part A's "restock everything still
// out" join would silently return the servers part B drained. Compose
// therefore rejects such pairs instead of merging them.
func capacityClaims(c CapacitySpec) map[CapacityEventKind]bool {
	claims := make(map[CapacityEventKind]bool)
	if c.FailMTBF > 0 {
		claims[CapacityFail] = true
	}
	if c.PreemptMTBF > 0 {
		claims[CapacityPreempt] = true
	}
	if c.DrainMTBF > 0 {
		claims[CapacityRackDrain] = true
	}
	for _, ev := range c.Planned {
		switch ev.Kind {
		case CapacityLeave, CapacityFail, CapacityPreempt, CapacityRackDrain:
			claims[ev.Kind] = true
		}
		if ev.Restocks != "" {
			claims[ev.Restocks] = true
		}
	}
	return claims
}

// Compose merges known scenarios into one combined world model, so a
// single cell can simulate e.g. a spot-market day: diurnal arrivals AND
// spot preemptions at once. The composed spec is named by joining the
// parts with "+" ("diurnal+spot"), the form Get also parses directly.
//
// Each dimension of the world may be claimed by at most one part:
//
//   - the arrival process (at most one part with a non-default Arrival),
//   - the node-failure process (FailMTBF),
//   - the spot-preemption process (PreemptMTBF),
//   - the stochastic rack-drain process (DrainMTBF),
//   - and, for capacity-bearing parts generally, each server-removal
//     kind ("leave", "fail", "preempt", "rackdrain") — whether claimed
//     by planned events, by the restock joins that return them, or by a
//     stochastic process. The simulator pools removed servers per kind,
//     so two parts sharing a kind would silently restock each other's
//     losses (one timeline shadowing the other); Compose rejects the
//     pair with ErrIncompatible instead.
//
// Planned capacity events of disjoint kinds concatenate (Timeline sorts
// them by time), and MinServers takes the most conservative (largest)
// floor. Composition keeps determinism: the merged spec is a pure value,
// so trace generation and capacity-timeline seeding behave exactly as
// for built-in specs.
func Compose(names ...string) (Spec, error) {
	if len(names) == 0 {
		return Spec{}, fmt.Errorf("%w: no scenario names given", ErrIncompatible)
	}
	var (
		out     Spec
		parts   []string
		titles  []string
		claimed = make(map[CapacityEventKind]string) // kind → part that owns it
	)
	for _, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" {
			return Spec{}, fmt.Errorf("%w: empty scenario name in %v", ErrIncompatible, names)
		}
		s, ok := Lookup(name)
		if !ok {
			return Spec{}, fmt.Errorf("%w %q (known: %v)", ErrUnknown, name, Names())
		}
		parts = append(parts, s.Name)
		titles = append(titles, s.Title)
		if s.Arrival != (ArrivalSpec{}) {
			if out.Arrival != (ArrivalSpec{}) {
				return Spec{}, fmt.Errorf("%w: %v claim two arrival processes (%s and %s)",
					ErrIncompatible, parts, out.Arrival, s.Arrival)
			}
			out.Arrival = s.Arrival
		}
		c := s.Capacity
		newClaims := capacityClaims(c)
		// Deterministic error text: report the lowest conflicting kind.
		kinds := make([]string, 0, len(newClaims))
		for k := range newClaims {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		for _, ks := range kinds {
			k := CapacityEventKind(ks)
			if owner, dup := claimed[k]; dup {
				return Spec{}, fmt.Errorf("%w: %q and %q both bear %q capacity events — their removals and restocks would cross-talk (one timeline silently restocking the other's losses); model the combined world as one registered scenario instead",
					ErrIncompatible, owner, s.Name, k)
			}
			claimed[k] = s.Name
		}
		if c.FailMTBF > 0 {
			out.Capacity.FailMTBF = c.FailMTBF
			out.Capacity.FailRepair = c.FailRepair
		}
		if c.PreemptMTBF > 0 {
			out.Capacity.PreemptMTBF = c.PreemptMTBF
			out.Capacity.PreemptRestock = c.PreemptRestock
		}
		if c.DrainMTBF > 0 {
			out.Capacity.DrainMTBF = c.DrainMTBF
			out.Capacity.DrainRestock = c.DrainRestock
		}
		out.Capacity.Planned = append(out.Capacity.Planned, c.Planned...)
		if c.MinServers > out.Capacity.MinServers {
			out.Capacity.MinServers = c.MinServers
		}
	}
	out.Name = strings.Join(parts, "+")
	out.Title = strings.Join(titles, " + ")
	return out, nil
}
