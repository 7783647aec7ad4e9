// Package metrics turns simulation results into the rows and series the
// paper's evaluation figures report: the average JCT / execution / queuing
// bars of Figures 15a–c, the box-plot distributions of Figures 15d–f, the
// cumulative-frequency curves of Figures 15g–i, and the relative-JCT
// scalability view of Figures 17–18.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/simulator"
	"repro/internal/stats"
)

// Summary condenses one scheduler's run.
type Summary struct {
	Scheduler string
	MeanJCT   float64
	MeanExec  float64
	MeanQueue float64
	Reconfigs int
}

// Summarize builds a Summary from a simulation result.
func Summarize(res *simulator.Result) Summary {
	return Summary{
		Scheduler: res.Scheduler,
		MeanJCT:   res.MeanJCT(),
		MeanExec:  res.MeanExec(),
		MeanQueue: res.MeanQueue(),
		Reconfigs: res.Reconfigs,
	}
}

// Metric selects which per-job duration a rendering uses.
type Metric int

// Metrics.
const (
	JCT Metric = iota
	Exec
	Queue
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case JCT:
		return "JCT"
	case Exec:
		return "execution time"
	case Queue:
		return "queuing time"
	default:
		return "unknown"
	}
}

// Values extracts the selected per-job series from a result.
func Values(res *simulator.Result, m Metric) []float64 {
	out := make([]float64, len(res.Jobs))
	for i, j := range res.Jobs {
		switch m {
		case Exec:
			out[i] = j.Exec
		case Queue:
			out[i] = j.Queue
		default:
			out[i] = j.JCT
		}
	}
	return out
}

// ComparisonTable renders the Figure 15a–c rows: one line per scheduler
// with the three averages, plus the relative reduction ONES achieves
// (positive = ONES is better).
func ComparisonTable(sums []Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %14s %14s %10s\n", "scheduler", "avg JCT (s)", "avg exec (s)", "avg queue (s)", "reconfigs")
	var ones *Summary
	for i := range sums {
		if sums[i].Scheduler == "ONES" {
			ones = &sums[i]
		}
	}
	for _, s := range sums {
		fmt.Fprintf(&b, "%-10s %12.2f %14.2f %14.2f %10d", s.Scheduler, s.MeanJCT, s.MeanExec, s.MeanQueue, s.Reconfigs)
		if ones != nil && s.Scheduler != "ONES" && s.MeanJCT > 0 {
			fmt.Fprintf(&b, "   (ONES −%.1f%%)", 100*(1-ones.MeanJCT/s.MeanJCT))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BoxTable renders the Figure 15d–f distributions for the chosen metric.
func BoxTable(results []*simulator.Result, m Metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s distribution (s)\n", m)
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %9s %9s\n", "scheduler", "min", "q1", "median", "q3", "max", "mean")
	for _, r := range results {
		box := stats.Box(Values(r, m))
		fmt.Fprintf(&b, "%-10s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f\n",
			r.Scheduler, box.Min, box.Q1, box.Median, box.Q3, box.Max, box.Mean)
	}
	return b.String()
}

// CFSeries is one scheduler's cumulative-frequency curve.
type CFSeries struct {
	Scheduler string
	X         []float64 // metric values (log-spaced)
	Y         []float64 // cumulative frequency at X
}

// CFCurves computes the Figure 15g–i curves for all results over a shared
// log-spaced x-axis spanning the observed range.
func CFCurves(results []*simulator.Result, m Metric, points int) []CFSeries {
	if points < 2 {
		points = 2
	}
	lo, hi := 1e18, 0.0
	for _, r := range results {
		for _, v := range Values(r, m) {
			if v > 0 && v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi <= 0 || lo >= hi {
		return nil
	}
	xs := stats.LogSpace(lo, hi, points)
	out := make([]CFSeries, 0, len(results))
	for _, r := range results {
		out = append(out, CFSeries{
			Scheduler: r.Scheduler,
			X:         xs,
			Y:         stats.ECDF(Values(r, m), xs),
		})
	}
	return out
}

// RenderCF renders CF curves as aligned text columns.
func RenderCF(series []CFSeries) string {
	if len(series) == 0 {
		return "(no data)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10s", "value(s)")
	for _, s := range series {
		fmt.Fprintf(&b, " %9s", s.Scheduler)
	}
	b.WriteByte('\n')
	for i := range series[0].X {
		fmt.Fprintf(&b, "%10.1f", series[0].X[i])
		for _, s := range series {
			fmt.Fprintf(&b, " %9.3f", s.Y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FractionWithin reports the share of jobs whose metric is at or below
// the threshold (the paper's "fraction of jobs completed within 200 s").
func FractionWithin(res *simulator.Result, m Metric, threshold float64) float64 {
	return stats.FractionBelow(Values(res, m), threshold)
}

// SortSummaries orders summaries with ONES first, then by name, for stable
// report layouts.
func SortSummaries(sums []Summary) {
	sort.SliceStable(sums, func(i, j int) bool {
		if (sums[i].Scheduler == "ONES") != (sums[j].Scheduler == "ONES") {
			return sums[i].Scheduler == "ONES"
		}
		return sums[i].Scheduler < sums[j].Scheduler
	})
}
