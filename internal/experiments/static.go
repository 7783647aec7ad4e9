package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/perfmodel"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// fig2 regenerates Figure 2: ResNet50/CIFAR10 throughput vs worker count,
// elastic (256 per worker) against a fixed global batch of 256.
var fig2 = engine.Experiment{
	Name:  "fig2",
	Title: "training speed of ResNet50 on CIFAR10, elastic vs fixed batch",
	Run: func(engine.Params, []*simulator.Result) (string, error) {
		p := perfmodel.CIFARResNet50()
		var b strings.Builder
		b.WriteString("Figure 2 — training speed of ResNet50 on CIFAR10 (images/s)\n")
		fmt.Fprintf(&b, "%8s %16s %16s\n", "workers", "elastic batch", "fixed batch=256")
		for c := 1; c <= 8; c++ {
			fmt.Fprintf(&b, "%8d %16.0f %16.0f\n", c,
				perfmodel.PackedThroughput(p, 256*c, c, 4),
				perfmodel.PackedThroughput(p, 256, c, 4))
		}
		return b.String(), nil
	},
}

// fig3 regenerates Figure 3: accuracy vs epochs with a fixed local batch
// of 256 on 1/2/4/8 GPUs (global batch grows, learning rate does not).
var fig3 = engine.Experiment{
	Name:  "fig3",
	Title: "accuracy with fixed local batch 256 and no LR scaling",
	Run: func(engine.Params, []*simulator.Result) (string, error) {
		p := perfmodel.CIFARResNet50()
		var b strings.Builder
		b.WriteString("Figure 3 — accuracy with fixed local batch 256 (no LR scaling)\n")
		fmt.Fprintf(&b, "%8s %8s %8s %8s %8s\n", "epochs", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs")
		for _, e := range []float64{10, 25, 50, 100, 150, 200} {
			fmt.Fprintf(&b, "%8.0f", e)
			for _, c := range []int{1, 2, 4, 8} {
				B := 256 * c
				eff := e / perfmodel.EpochPenalty(p, B, false)
				fmt.Fprintf(&b, " %8.3f", perfmodel.AccuracyAt(p, eff, B, false))
			}
			b.WriteByte('\n')
		}
		return b.String(), nil
	},
}

// table2 renders the workload catalog composition.
var table2 = engine.Experiment{
	Name:  "table2",
	Title: "workload catalog composition (50 task types)",
	Run: func(engine.Params, []*simulator.Result) (string, error) {
		catalog := workload.Catalog()
		var b strings.Builder
		b.WriteString("Table 2 — workload catalog (50 task types)\n")
		fmt.Fprintf(&b, "%-28s %-12s %-10s %10s %8s\n", "task", "class", "model", "‖D‖", "classes")
		for _, t := range catalog {
			fmt.Fprintf(&b, "%-28s %-12s %-10s %10d %8d\n", t.Name, t.Class, t.Model, t.DatasetSize, t.Classes)
		}
		return b.String(), nil
	},
}

// table3 renders the scheduler capability matrix.
var table3 = engine.Experiment{
	Name:  "table3",
	Title: "scheduler capability matrix",
	Run: func(engine.Params, []*simulator.Result) (string, error) {
		var b strings.Builder
		b.WriteString("Table 3 — scheduler capabilities\n")
		fmt.Fprintf(&b, "%-10s %-18s %-12s %-14s %-14s\n",
			"scheduler", "strategy", "preemption", "elastic size", "elastic batch")
		rows := [][5]string{
			{"ONES", "dynamic (EA)", "yes", "yes", "yes"},
			{"DRL", "dynamic (RL)", "no", "yes", "no"},
			{"Tiresias", "greedy (LAS)", "yes", "no", "no"},
			{"Optimus", "greedy (periodic)", "yes", "yes", "no"},
		}
		for _, row := range rows {
			fmt.Fprintf(&b, "%-10s %-18s %-12s %-14s %-14s\n", row[0], row[1], row[2], row[3], row[4])
		}
		return b.String(), nil
	},
}
