package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/perfmodel"
	"repro/internal/simulator"
)

// fig13 regenerates Figure 13: abrupt 256→4096 rescale at epoch 30.
var fig13 = engine.Experiment{
	Name:  "fig13",
	Title: "loss under an abrupt 256→4096 batch rescale",
	Run: func(engine.Params, []*simulator.Result) (string, error) {
		return lossCurve("Figure 13 — loss under abrupt rescale 256→4096 at epoch 30",
			map[int]int{30: 4096})
	},
}

// fig14 regenerates Figure 14: gradual 256→1024→4096 rescale.
var fig14 = engine.Experiment{
	Name:  "fig14",
	Title: "loss under a gradual 256→1024→4096 batch rescale",
	Run: func(engine.Params, []*simulator.Result) (string, error) {
		return lossCurve("Figure 14 — loss under gradual rescale 256→1024→4096",
			map[int]int{30: 1024, 60: 4096})
	},
}

// lossCurve trains ResNet50/CIFAR10 for 90 epochs applying the given
// epoch→batch rescales, against a fixed-batch control run.
func lossCurve(title string, rescale map[int]int) (string, error) {
	p := perfmodel.CIFARResNet50()
	scaled, err := perfmodel.NewTrainer(p, 40000, 256, true)
	if err != nil {
		return "", err
	}
	fixed, err := perfmodel.NewTrainer(p, 40000, 256, true)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%8s %14s %14s\n", "epoch", "scaled batch", "fixed batch")
	for e := 1; e <= 90; e++ {
		if nb, ok := rescale[e]; ok {
			scaled.SetBatch(nb)
		}
		scaled.AdvanceEpoch()
		fixed.AdvanceEpoch()
		if e%3 == 0 || e == 1 {
			fmt.Fprintf(&b, "%8d %14.4f %14.4f\n", e, scaled.Loss(), fixed.Loss())
		}
	}
	return b.String(), nil
}
