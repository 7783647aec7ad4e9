package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/simulator"
)

// reactiveAutoscalers are the controller rows of the reactive sweep: the
// controller-free baseline and the three built-in policies in rising
// order of aggressiveness.
func reactiveAutoscalers() []string {
	return []string{"", "reactive-conservative", "reactive-aggressive", "reactive-emergency"}
}

// reactiveScenarios drives the closed loop with the two arrival shapes
// that reward elasticity: a slow diurnal wave and a sharp burst.
func reactiveScenarios() []string {
	return []string{"diurnal", "burst"}
}

// reactiveCapacity deliberately undersizes the cluster (16 GPUs against
// the paper's 64) so arrival peaks overload it: a fixed fleet queues,
// a reactive controller grows through the peak and shrinks after it.
const reactiveCapacity = 16

// reactiveCells declares one paired comparison per (scenario,
// autoscaler), scenario-major; an empty autoscaler is the
// controller-free baseline. All cells share the master trace seed, so
// every (scenario, autoscaler) pair of one scheduler replays the
// identical job stream.
func reactiveCells(engine.Params) []engine.Cell {
	var cells []engine.Cell
	for _, scn := range reactiveScenarios() {
		for _, as := range reactiveAutoscalers() {
			cells = paired(cells, engine.Cell{Capacity: reactiveCapacity, Scenario: scn, Autoscaler: as})
		}
	}
	return cells
}

// reactive sweeps autoscaler aggressiveness against the scheduler
// lineup: every cell replays the identical trace on the identical tight
// cluster, with capacity driven only by the closed analyzer → decision →
// scaler loop. It answers what the paper's fixed testbed cannot: how
// much of the queueing pain is fleet size rather than scheduling, and
// whether the scheduler ranking survives an elastic fleet.
var reactive = engine.Experiment{
	Name:  "reactive",
	Title: "closed-loop reactive autoscaling: policy aggressiveness × scheduler",
	Cells: reactiveCells,
	Run: func(_ engine.Params, sweep []*simulator.Result) (string, error) {
		autoscalers := reactiveAutoscalers()
		scenarios := reactiveScenarios()
		rows := comparisons(sweep)
		label := func(as string) string {
			if as == "" {
				return "fixed-fleet"
			}
			return strings.TrimPrefix(as, "reactive-")
		}

		var b strings.Builder
		fmt.Fprintf(&b, "Reactive autoscaling sweep — %d-GPU cluster, capacity driven by the closed loop\n", reactiveCapacity)
		for ci, scn := range scenarios {
			fmt.Fprintf(&b, "\nscenario %s\n", scn)
			fmt.Fprintf(&b, "%-14s %-12s", "autoscaler", "metric")
			for _, res := range rows[0] {
				fmt.Fprintf(&b, " %12s", res.Scheduler)
			}
			b.WriteByte('\n')
			for ai, as := range autoscalers {
				row := func(metric string, f func(res *simulator.Result) string) {
					fmt.Fprintf(&b, "%-14s %-12s", label(as), metric)
					for _, res := range rows[ci*len(autoscalers)+ai] {
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
				row("scale up/dn", func(res *simulator.Result) string {
					return fmt.Sprintf("%d/%d", res.ScaleUps, res.ScaleDowns)
				})
				row("util", func(res *simulator.Result) string {
					return fmt.Sprintf("%.2f", res.Utilization())
				})
			}
		}
		b.WriteString("\n(* = truncated run, unfinished jobs excluded. All cells replay the\n")
		b.WriteString(" identical trace; \"fixed-fleet\" is the controller-free baseline.\n")
		b.WriteString(" scale up/dn counts the controller's applied grow/shrink events.)\n")
		return b.String(), nil
	},
}
