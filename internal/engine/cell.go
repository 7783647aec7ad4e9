package engine

import (
	"fmt"
	"hash/fnv"

	"repro/internal/cluster"
	"repro/internal/scenario"
)

// Cell is the unit of simulation work and the shared-cache key: one
// scheduler replaying one trace on one cluster topology under one
// scenario (how the world changes during the run).
type Cell struct {
	Scheduler string // scheduler name ("ones", "drl", …)
	Capacity  int    // initial total GPUs (0 ⇒ the paper's 64-GPU Longhorn testbed)
	TraceSeed int64  // workload trace seed (0 ⇒ the master seed)
	Scenario  string // scenario name ("" ⇒ "steady")
	// GPUsPer is the per-server GPU count shaping a homogeneous topology
	// (0 ⇒ 4, the paper's Longhorn servers). Capacity is rounded up to
	// whole servers. Ignored when Shape is set.
	GPUsPer int
	// Shape, when non-empty, is a heterogeneous cluster shape in
	// cluster.ParseShape syntax ("4x8,2x4": per-server GPU counts, one
	// rack per comma group). It overrides Capacity/GPUsPer; the shape
	// string is taken verbatim as a cache-key dimension, so "4x8,2x4"
	// and "2x4,4x8" are distinct cells — deliberately, since group order
	// fixes the GPU axis and the rack ids and therefore the results.
	Shape string
	// Autoscaler, when non-empty, names an autoscale policy
	// ("reactive-conservative", …) whose controller runs against the cell
	// as a closed loop, growing and shrinking the cluster in reaction to
	// observed pressure. Empty ⇒ no controller (capacity follows the
	// scenario alone).
	Autoscaler string
}

// String renders the cell for progress and error reporting.
func (c Cell) String() string {
	s := ""
	switch {
	case c.Shape != "":
		s = fmt.Sprintf("%s/%s/trace%d/%s", c.Scheduler, c.Shape, c.TraceSeed, c.Scenario)
	case c.GPUsPer != 0 && c.GPUsPer != 4:
		s = fmt.Sprintf("%s/%dgpu(%dper)/trace%d/%s", c.Scheduler, c.Capacity, c.GPUsPer, c.TraceSeed, c.Scenario)
	default:
		s = fmt.Sprintf("%s/%dgpu/trace%d/%s", c.Scheduler, c.Capacity, c.TraceSeed, c.Scenario)
	}
	if c.Autoscaler != "" {
		s += "/" + c.Autoscaler
	}
	return s
}

// Normalize resolves the cell's zero-value defaults against the params:
// the cell that simulates, the one CellKey renders and the one a Result
// reports. It is idempotent.
func (c Cell) Normalize(p Params) Cell {
	if c.Shape != "" {
		// A shaped cell carries its size in the shape itself; Capacity is
		// derived for reporting and GPUsPer stays out of the key space.
		// The shape string is re-rendered canonically ("4x8, 2x4" ⇒
		// "4x8,2x4") so spelling variants of one topology share a cell,
		// a cache key and a seed; group ORDER is preserved — orderings
		// are distinct topologies, deliberately keyed apart.
		if topo, err := cluster.ParseShape(c.Shape); err == nil {
			c.Capacity = topo.TotalGPUs()
			c.Shape = topo.Shape()
		}
		c.GPUsPer = 0
	} else {
		if c.Capacity <= 0 {
			c.Capacity = cluster.Longhorn().TotalGPUs()
		}
		if c.GPUsPer <= 0 {
			c.GPUsPer = 4
		}
	}
	if c.TraceSeed == 0 {
		c.TraceSeed = p.Seed
	}
	if c.Scenario == "" {
		c.Scenario = scenario.Steady
	}
	return c
}

// Topology maps the cell to its cluster shape. With Shape set, the shape
// string is parsed (an invalid shape errors here, surfacing on the first
// run of the cell); otherwise Capacity is cut into homogeneous GPUsPer-GPU
// servers (default 4, as on the paper's Longhorn testbed — capacity 64 ⇒
// exactly cluster.Longhorn()).
func (c Cell) Topology() (cluster.Topology, error) {
	if c.Shape != "" {
		return cluster.ParseShape(c.Shape)
	}
	per := c.GPUsPer
	if per <= 0 {
		per = 4
	}
	return cluster.Uniform((c.Capacity+per-1)/per, per), nil
}

// deriveSeed turns a salted cell key into an RNG seed. The derivation
// depends only on the key — never on execution order — so results are
// identical at any worker count. FNV-1a mixes the key; a splitmix64
// finalizer scatters related master seeds.
func deriveSeed(master int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	z := uint64(master)*0x9E3779B97F4A7C15 ^ h.Sum64()
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z &^ (1 << 63)) // math/rand seeds must be non-negative-friendly
	if s == 0 {
		s = 1
	}
	return s
}

// topoKey renders the topology part of a seed-derivation key. The 4-GPU
// default deliberately contributes only the capacity, so seeds derived
// before the GPUsPer dimension existed are unchanged; a heterogeneous
// shape contributes its verbatim shape string, a namespace no
// homogeneous cell can collide with.
func (c Cell) topoKey() string {
	if c.Shape != "" {
		return c.Shape
	}
	if c.GPUsPer != 0 && c.GPUsPer != 4 {
		return fmt.Sprintf("%d/%d", c.Capacity, c.GPUsPer)
	}
	return fmt.Sprintf("%d", c.Capacity)
}

// schedulerSeed derives the cell's scheduler RNG seed from the master
// seed and the full cell key.
func (c Cell) schedulerSeed(master int64) int64 {
	return deriveSeed(master, fmt.Sprintf("%s|%s|%d|%s", c.Scheduler, c.topoKey(), c.TraceSeed, c.Scenario))
}

// scenarioSeed derives the capacity-timeline seed. It deliberately
// excludes the scheduler: every scheduler facing this scenario cell sees
// the identical sequence of failures and preemptions, preserving the
// paired comparisons the Wilcoxon analysis relies on.
func (c Cell) scenarioSeed(master int64) int64 {
	return deriveSeed(master, fmt.Sprintf("scenario|%s|%d|%s", c.topoKey(), c.TraceSeed, c.Scenario))
}

// drainSeed derives the stochastic rack-drain process seed. Like
// scenarioSeed it excludes the scheduler (paired comparisons) but uses
// its own namespace so the drain draws are independent of the
// fail/preempt timeline draws.
func (c Cell) drainSeed(master int64) int64 {
	return deriveSeed(master, fmt.Sprintf("drain|%s|%d|%s", c.topoKey(), c.TraceSeed, c.Scenario))
}

// autoscalerSeed derives the reactive controller's seed (scale-down
// server picks). It excludes the scheduler so paired comparisons face a
// controller with the identical random tape — though, the loop being
// closed, different schedulers may still drive it to different actions.
func (c Cell) autoscalerSeed(master int64) int64 {
	return deriveSeed(master, fmt.Sprintf("autoscale|%s|%d|%s|%s", c.topoKey(), c.TraceSeed, c.Scenario, c.Autoscaler))
}

// CellKey renders the canonical persistent-cache key for a cell under
// the given params: every parameter that shapes the cell's result, in a
// fixed order, after resolving the cell's zero-value defaults — so a
// defaulted and an explicit spelling of the same cell share one entry.
// Parameters that only affect throughput (Workers) or experiment
// rendering (Capacities, ParamScale, CFPoints) are deliberately absent.
// A heterogeneous shape appends a |shape= dimension and a reactive
// autoscaler an |as= dimension; cells using neither keep the exact key
// they had before those dimensions existed, so a cache populated by an
// earlier build keeps serving them. The result-format version lives in
// the cache layer (servecache), not here, so a format bump invalidates
// files without renaming keys.
func CellKey(p Params, c Cell) string {
	c = c.Normalize(p)
	key := fmt.Sprintf("cell|seed=%d|jobs=%d|ia=%g|maxgpus=%d|pop=%d|theta=%g|events=%t|sched=%s|cap=%d|per=%d|trace=%d|scn=%s",
		p.Seed, p.Jobs, p.Interarrival, p.MaxGPUs, p.Population, p.MutationRate, p.RecordEvents,
		c.Scheduler, c.Capacity, c.GPUsPer, c.TraceSeed, c.Scenario)
	if c.Shape != "" {
		key += "|shape=" + c.Shape
	}
	if c.Autoscaler != "" {
		key += "|as=" + c.Autoscaler
	}
	return key
}
