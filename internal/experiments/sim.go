package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/simulator"
	"repro/internal/stats"
)

// paired appends base under every paper scheduler, in PaperSchedulers
// order: one paired comparison, every scheduler replaying the identical
// trace in the identical world. Every simulated experiment declares its
// cells as a run of these and reads them back through comparisons.
func paired(cells []engine.Cell, base engine.Cell) []engine.Cell {
	for _, s := range engine.PaperSchedulers() {
		base.Scheduler = s
		cells = append(cells, base)
	}
	return cells
}

// comparisons splits the results of cells declared through paired into
// one paired comparison each, in declaration order.
func comparisons(res []*simulator.Result) [][]*simulator.Result {
	n := len(engine.PaperSchedulers())
	out := make([][]*simulator.Result, 0, len(res)/n)
	for i := 0; i+n <= len(res); i += n {
		out = append(out, res[i:i+n])
	}
	return out
}

// fig15Cells are the headline-comparison runs: every paper scheduler on
// the default 64-GPU trace (capacity 0 ⇒ the Longhorn testbed).
func fig15Cells(engine.Params) []engine.Cell {
	return paired(nil, engine.Cell{})
}

// sweepCells are the capacity-sweep runs of Figures 17/18, one paired
// comparison per capacity in Params.Capacities order. The 64-GPU row is
// the same cell set as Figure 15, so a batch runs it once.
func sweepCells(p engine.Params) []engine.Cell {
	var cells []engine.Cell
	for _, capGPUs := range p.Capacities {
		cells = paired(cells, engine.Cell{Capacity: capGPUs})
	}
	return cells
}

// fig15 renders all nine panels of Figure 15 as text.
var fig15 = engine.Experiment{
	Name:  "fig15",
	Title: "head-to-head scheduler comparison on the 64-GPU trace",
	Cells: fig15Cells,
	Run: func(p engine.Params, results []*simulator.Result) (string, error) {
		sums := make([]metrics.Summary, len(results))
		for i, res := range results {
			sums[i] = metrics.Summarize(res)
		}
		metrics.SortSummaries(sums)
		var b strings.Builder
		b.WriteString("Figure 15a–c — average completion / execution / queuing time\n")
		b.WriteString(metrics.ComparisonTable(sums))
		b.WriteByte('\n')
		for _, m := range []metrics.Metric{metrics.JCT, metrics.Exec, metrics.Queue} {
			b.WriteString("Figure 15d–f — ")
			b.WriteString(metrics.BoxTable(results, m))
			b.WriteByte('\n')
		}
		for _, m := range []metrics.Metric{metrics.JCT, metrics.Exec, metrics.Queue} {
			fmt.Fprintf(&b, "Figure 15g–i — cumulative frequency of %s\n", m)
			b.WriteString(metrics.RenderCF(metrics.CFCurves(results, m, p.CFPoints)))
			b.WriteByte('\n')
		}
		// The paper's headline observation on the JCT distribution.
		for _, res := range results {
			fmt.Fprintf(&b, "fraction of jobs completed within 200 s (%s): %.0f%%\n",
				res.Scheduler, 100*metrics.FractionWithin(res, metrics.JCT, 200))
		}
		return b.String(), nil
	},
}

// table4 runs the Wilcoxon significance tests of ONES against each
// baseline on the paired per-job JCTs from the Figure 15 runs.
var table4 = engine.Experiment{
	Name:  "table4",
	Title: "Wilcoxon significance tests on the paired Figure 15 JCTs",
	Cells: fig15Cells,
	Run: func(_ engine.Params, results []*simulator.Result) (string, error) {
		var ones *simulator.Result
		for _, res := range results {
			if res.Scheduler == "ONES" {
				ones = res
			}
		}
		if ones == nil {
			return "", fmt.Errorf("experiments: Figure 15 runs missing ONES")
		}
		var b strings.Builder
		b.WriteString("Table 4 — Wilcoxon significance tests on per-job JCT\n")
		fmt.Fprintf(&b, "%-14s %18s %26s\n", "comparison", "p (two-sided)", "p (one-sided negative)")
		for _, res := range results {
			if res.Scheduler == "ONES" {
				continue
			}
			two, err := stats.Wilcoxon(ones.JCTs(), res.JCTs(), stats.TwoSided)
			if err != nil {
				return "", err
			}
			neg, err := stats.Wilcoxon(ones.JCTs(), res.JCTs(), stats.Greater)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "vs. %-10s %18.3g %26.5f\n", res.Scheduler, two.P, neg.P)
		}
		b.WriteString("(small two-sided p rejects equivalence; one-sided p near 1 accepts \"ONES smaller\")\n")
		return b.String(), nil
	},
}

// fig17 renders average JCT vs cluster capacity.
var fig17 = engine.Experiment{
	Name:  "fig17",
	Title: "average JCT vs cluster capacity",
	Cells: sweepCells,
	Run: func(p engine.Params, sweep []*simulator.Result) (string, error) {
		byCap := comparisons(sweep)
		var b strings.Builder
		b.WriteString("Figure 17 — average JCT (s) vs cluster capacity\n")
		fmt.Fprintf(&b, "%8s", "GPUs")
		for _, res := range byCap[0] {
			fmt.Fprintf(&b, " %10s", res.Scheduler)
		}
		b.WriteByte('\n')
		for i, capGPUs := range p.Capacities {
			fmt.Fprintf(&b, "%8d", capGPUs)
			for _, res := range byCap[i] {
				fmt.Fprintf(&b, " %10.1f", res.MeanJCT())
			}
			b.WriteByte('\n')
		}
		return b.String(), nil
	},
}

// fig18 renders the relative JCT (baseline / ONES) per capacity.
var fig18 = engine.Experiment{
	Name:  "fig18",
	Title: "JCT relative to ONES per capacity",
	Cells: sweepCells,
	Run: func(p engine.Params, sweep []*simulator.Result) (string, error) {
		byCap := comparisons(sweep)
		var b strings.Builder
		b.WriteString("Figure 18 — JCT relative to ONES (lower is better; ONES = 1.00)\n")
		fmt.Fprintf(&b, "%8s", "GPUs")
		for _, res := range byCap[0] {
			fmt.Fprintf(&b, " %10s", res.Scheduler)
		}
		b.WriteByte('\n')
		for i, capGPUs := range p.Capacities {
			results := byCap[i]
			var ones float64
			for _, res := range results {
				if res.Scheduler == "ONES" {
					ones = res.MeanJCT()
				}
			}
			fmt.Fprintf(&b, "%8d", capGPUs)
			for _, res := range results {
				rel := math.NaN()
				if ones > 0 {
					rel = res.MeanJCT() / ones
				}
				fmt.Fprintf(&b, " %10.2f", rel)
			}
			b.WriteByte('\n')
		}
		return b.String(), nil
	},
}
