package scenario

import (
	"math/rand"
	"sort"
)

// CapacityEventKind classifies how the cluster changes.
type CapacityEventKind string

// Capacity event kinds. Join adds servers; the others remove them. The
// single-server removals differ only in provenance (reporting) — the
// simulator treats every removal as "the server's jobs are evicted and
// requeued". RackDrain removes a whole failure domain at once: every
// server whose ServerSpec.Rack matches the event's Rack id.
const (
	CapacityJoin    CapacityEventKind = "join"
	CapacityLeave   CapacityEventKind = "leave"   // planned scale-down / maintenance drain
	CapacityFail    CapacityEventKind = "fail"    // node failure
	CapacityPreempt CapacityEventKind = "preempt" // spot instance reclaimed
	// CapacityRackDrain drains one rack: a top-of-rack switch failure,
	// a PDU trip, or planned rack maintenance. Only meaningful on
	// topologies with more than one rack (draining a rack absent from
	// the live cluster is a no-op; the MinServers floor still applies,
	// so a drain can be partial).
	CapacityRackDrain CapacityEventKind = "rackdrain"
)

// CapacityEvent is one entry of a capacity timeline.
type CapacityEvent struct {
	Time float64
	Kind CapacityEventKind
	// Servers is how many servers join or leave (0 ⇒ 1 — except for
	// restock joins, where 0 means "everything still out": the whole
	// drained rack powers back up). Ignored by rack drains, which
	// remove the whole rack.
	Servers int
	// Pick ∈ [0,1) selects what a removal hits, scaled at apply time:
	// a single-server removal's server by the live server count, and a
	// rackdrain that names no rack (Rack < 0) its rack by the live rack
	// count. Precomputing the fraction rather than an index keeps the
	// timeline valid whatever the cluster has become by then.
	Pick float64
	// Rack is the rack id a rackdrain empties (matching
	// cluster.ServerSpec.Rack; ParseShape assigns group i to rack i).
	// A negative Rack names none: the simulator empties the live rack
	// Pick selects, among the racks still live after every event applied
	// before this one, at the same instant included. Planned drains name
	// their rack; the DrainMTBF process does not. Ignored by every other
	// kind.
	Rack int
	// GPUs sets the per-server GPU count of joined servers (0 ⇒ match
	// the cluster's first server — on a homogeneous fleet, more of the
	// same). Ignored by removals and by restock joins, which return the
	// exact servers that left.
	GPUs int
	// Restocks marks a join that returns capacity removed by an earlier
	// event of the given kind (a repaired node, restocked spot capacity,
	// a drained rack powering back up). The simulator returns the exact
	// servers that left — shapes and rack ids included — and skips the
	// join when the removal never actually happened (e.g. it was clamped
	// at the MinServers floor), so the cluster can never grow past its
	// physical size through repairs alone. Empty for planned joins,
	// which are deliberate growth.
	Restocks CapacityEventKind
	// Origin identifies what produced the event: empty for planned
	// timelines and chaos processes, OriginAutoscaler for events a
	// reactive controller emitted. The simulator uses it to count
	// controller-driven scaling separately; it never changes how the
	// event applies.
	Origin string
}

// DefaultHorizon bounds stochastic timeline generation: past it the
// cluster stops churning. Two simulated hours — the paper's workload is
// tuned so jobs "basically finish within 2 hours".
const DefaultHorizon = 7200.0

// CapacitySpec describes how cluster capacity evolves: a deterministic
// planned schedule plus seeded stochastic failure/preemption processes.
type CapacitySpec struct {
	// Planned events fire at fixed times (elastic scale-up/down,
	// maintenance drains). Times are relative to simulation start.
	Planned []CapacityEvent

	// FailMTBF is the cluster-wide mean time between node failures in
	// seconds (0 ⇒ no failures). A failed server rejoins FailRepair
	// seconds later (0 ⇒ lost for the rest of the run).
	FailMTBF   float64
	FailRepair float64

	// PreemptMTBF is the mean time between spot reclaims (0 ⇒ none);
	// reclaimed capacity is restocked PreemptRestock seconds later.
	PreemptMTBF    float64
	PreemptRestock float64

	// DrainMTBF is the mean time between whole-rack drains in seconds
	// (0 ⇒ none). Timeline draws the drains from their own seed; each
	// names no rack (Rack −1), so the simulator empties a random *live*
	// rack, picked by the drain's Pick when it applies. The drained rack
	// powers back up DrainRestock seconds later (0 ⇒ lost); overlapping
	// drains restock together at the earlier repair.
	DrainMTBF    float64
	DrainRestock float64

	// MinServers floors the cluster: removals that would shrink it below
	// are skipped by the simulator (0 ⇒ 1).
	MinServers int
}

// IsStatic reports whether the capacity never changes.
func (c CapacitySpec) IsStatic() bool {
	return len(c.Planned) == 0 && c.FailMTBF <= 0 && c.PreemptMTBF <= 0 && c.DrainMTBF <= 0
}

// Timeline expands the spec into a concrete, time-sorted event list. The
// failure and preemption draws come from seed, the rack drains from
// drainSeed, so the drain process is independent of the others. The
// draws depend only on (spec, seed, drainSeed), never on simulation
// state, so every scheduler facing the same scenario cell sees the
// identical sequence of cluster changes — the pairing that keeps
// cross-scheduler comparisons meaningful. Generation stops at
// DefaultHorizon.
func (c CapacitySpec) Timeline(seed, drainSeed int64) []CapacityEvent {
	var events []CapacityEvent
	for _, ev := range c.Planned {
		if ev.Time <= DefaultHorizon {
			events = append(events, ev)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	draw := func(mtbf, restock float64, kind CapacityEventKind) {
		if mtbf <= 0 {
			return
		}
		for t := rng.ExpFloat64() * mtbf; t <= DefaultHorizon; t += rng.ExpFloat64() * mtbf {
			events = append(events, CapacityEvent{Time: t, Kind: kind, Servers: 1, Pick: rng.Float64()})
			if restock > 0 {
				events = append(events, CapacityEvent{Time: t + restock, Kind: CapacityJoin, Servers: 1, Restocks: kind})
			}
		}
	}
	draw(c.FailMTBF, c.FailRepair, CapacityFail)
	draw(c.PreemptMTBF, c.PreemptRestock, CapacityPreempt)
	if c.DrainMTBF > 0 {
		rng := rand.New(rand.NewSource(drainSeed))
		for t := rng.ExpFloat64() * c.DrainMTBF; t <= DefaultHorizon; t += rng.ExpFloat64() * c.DrainMTBF {
			events = append(events, CapacityEvent{Time: t, Kind: CapacityRackDrain, Rack: -1, Pick: rng.Float64()})
			if c.DrainRestock > 0 {
				// Servers 0 on a restock join means "everything still out".
				events = append(events, CapacityEvent{Time: t + c.DrainRestock, Kind: CapacityJoin, Restocks: CapacityRackDrain})
			}
		}
	}
	// Stable sort: the pre-sort order (planned, failures, preemptions,
	// drains) is deterministic, so ties at equal times resolve
	// identically every run.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return events
}
