package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/simulator"
)

// heteroShapes are the cluster rows of the hetero sweep, all replaying
// the identical trace:
//
//   - "16x4": the paper's homogeneous Longhorn testbed — one rack, so a
//     rack drain has nothing separate to take down (control row).
//   - "8x4,8x4": the same 64 GPUs split across two failure domains; a
//     rack drain halves the cluster.
//   - "4x8,2x4": a genuinely mixed fleet — four dense 8-GPU boxes in
//     rack 0 and two small 4-GPU boxes in rack 1 (40 GPUs total).
func heteroShapes() []string {
	return []string{"16x4", "8x4,8x4", "4x8,2x4"}
}

// heteroScenarios pairs the steady world against the rack-drain chaos
// case (rack 1 drains whole at 600 s, powers back at 1800 s).
func heteroScenarios() []string {
	return []string{scenario.Steady, scenario.RackDrain}
}

// heteroCells declares one paired comparison per (scenario, shape),
// scenario-major. All cells share the master trace seed, so every
// (shape, scheduler) pair replays the identical job stream.
func heteroCells(engine.Params) []engine.Cell {
	var cells []engine.Cell
	for _, scn := range heteroScenarios() {
		for _, shape := range heteroShapes() {
			cells = paired(cells, engine.Cell{Shape: shape, Scenario: scn})
		}
	}
	return cells
}

// hetero extends the evaluation to heterogeneous fleets: the same trace
// replayed on clusters with per-server GPU shapes and rack-level failure
// domains, with and without a rack drain. It answers two questions the
// paper's homogeneous testbed cannot: does the scheduler ranking survive
// a mixed fleet, and what does losing a whole failure domain cost?
var hetero = engine.Experiment{
	Name:  "hetero",
	Title: "heterogeneous fleets: per-server shapes and rack-drain failure domains",
	Cells: heteroCells,
	Run: func(_ engine.Params, sweep []*simulator.Result) (string, error) {
		shapes := heteroShapes()
		scenarios := heteroScenarios()
		rows := comparisons(sweep)

		var b strings.Builder
		b.WriteString("Heterogeneous cluster sweep — per-server shapes and rack failure domains\n")
		for si, shape := range shapes {
			topo, err := cluster.ParseShape(shape)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "\ncluster %s (%d GPUs;", shape, topo.TotalGPUs())
			for _, rc := range topo.RackSummary() {
				fmt.Fprintf(&b, " rack %d: %d srv/%d GPUs", rc.Rack, rc.Servers, rc.GPUs)
			}
			b.WriteString(")\n")
			fmt.Fprintf(&b, "%-12s %-12s", "scenario", "metric")
			for _, res := range rows[0] {
				fmt.Fprintf(&b, " %12s", res.Scheduler)
			}
			b.WriteByte('\n')
			for ci, scn := range scenarios {
				row := func(metric string, f func(res *simulator.Result) string) {
					fmt.Fprintf(&b, "%-12s %-12s", scn, metric)
					for _, res := range rows[ci*len(shapes)+si] {
						fmt.Fprintf(&b, " %12s", f(res))
					}
					b.WriteByte('\n')
				}
				row("avg JCT (s)", func(res *simulator.Result) string {
					mark := ""
					if res.Truncated {
						mark = "*"
					}
					return fmt.Sprintf("%.1f%s", res.MeanJCT(), mark)
				})
				row("evictions", func(res *simulator.Result) string {
					if res.RackDrainEvictions > 0 {
						return fmt.Sprintf("%d (%drk)", res.Evictions, res.RackDrainEvictions)
					}
					return fmt.Sprintf("%d", res.Evictions)
				})
				row("util", func(res *simulator.Result) string {
					return fmt.Sprintf("%.2f", res.Utilization())
				})
			}
		}
		b.WriteString("\n(* = truncated run, unfinished jobs excluded; (Nrk) = N of the\n")
		b.WriteString(" evictions came from rack drains. All cells replay the identical\n")
		b.WriteString(" trace; a single-rack cluster sails through rack-drain unharmed.)\n")
		return b.String(), nil
	},
}
