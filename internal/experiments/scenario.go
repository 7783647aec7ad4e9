package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/simulator"
)

// sweepScenarios are the rows of the scenario-sweep table: the paper's
// steady testbed plus the world changes a production cluster actually
// sees — shifting load, spot reclaims and node failures.
func sweepScenarios() []string {
	return []string{
		scenario.Steady,
		scenario.Diurnal,
		scenario.Burst,
		scenario.Spot,
		scenario.NodeFailure,
	}
}

// scenarioCells declares one paired comparison per sweepScenarios row,
// on the default 64-GPU cluster.
func scenarioCells(engine.Params) []engine.Cell {
	var cells []engine.Cell
	for _, scn := range sweepScenarios() {
		cells = paired(cells, engine.Cell{Scenario: scn})
	}
	return cells
}

// scenarioSweep extends the evaluation past the paper's fixed 64-GPU
// world: every scheduler replays the trace while the scenario perturbs
// arrivals and capacity. The steady row doubles as the Figure 15 runs
// (same cells, shared cache), so the table reads as "and here is what
// happens to those numbers when the world misbehaves".
var scenarioSweep = engine.Experiment{
	Name:  "scenario",
	Title: "scheduler robustness under elastic capacity, failures and shifting load",
	Cells: scenarioCells,
	Run: func(_ engine.Params, sweep []*simulator.Result) (string, error) {
		scenarios := sweepScenarios()
		byScenario := comparisons(sweep)

		var b strings.Builder
		b.WriteString("Scenario sweep — schedulers under changing worlds (64 GPUs initially)\n")
		header := func(metric string) {
			fmt.Fprintf(&b, "\n%s\n%-14s", metric, "scenario")
			for _, res := range byScenario[0] {
				fmt.Fprintf(&b, " %12s", res.Scheduler)
			}
			b.WriteByte('\n')
		}
		row := func(i int, f func(res *simulator.Result) string) {
			fmt.Fprintf(&b, "%-14s", scenarios[i])
			for _, res := range byScenario[i] {
				fmt.Fprintf(&b, " %12s", f(res))
			}
			b.WriteByte('\n')
		}
		header("average JCT (s; * = truncated run, unfinished jobs excluded)")
		for i := range scenarios {
			row(i, func(res *simulator.Result) string {
				mark := ""
				if res.Truncated {
					mark = "*"
				}
				return fmt.Sprintf("%.1f%s", res.MeanJCT(), mark)
			})
		}
		header("makespan (s)")
		for i := range scenarios {
			row(i, func(res *simulator.Result) string {
				return fmt.Sprintf("%.0f", res.Makespan)
			})
		}
		header("evictions (jobs forced off GPUs by server losses)")
		for i := range scenarios {
			row(i, func(res *simulator.Result) string {
				return fmt.Sprintf("%d", res.Evictions)
			})
		}
		header("utilization (busy / available GPU-seconds)")
		for i := range scenarios {
			row(i, func(res *simulator.Result) string {
				return fmt.Sprintf("%.2f", res.Utilization())
			})
		}
		b.WriteString("\n(scenarios sharing an arrival process replay the identical trace;\n")
		b.WriteString(" capacity timelines are seeded per scenario, identical across schedulers)\n")
		return b.String(), nil
	},
}
