package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/perfmodel"
	"repro/internal/predictor"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// fig6 regenerates Figure 6: the online predictor's progress estimate
// with a 90% confidence interval against the observed progress of a
// held-out job.
var fig6 = engine.Experiment{
	Name:  "fig6",
	Title: "online prediction of training progress on a held-out job",
	Run: func(p engine.Params, _ []*simulator.Result) (string, error) {
		pred := predictor.New(p.Seed, predictor.DefaultConfig())
		catalog := workload.Catalog()
		// Train the model on completed jobs spanning the catalog.
		for i, task := range catalog {
			if i%2 == 1 {
				continue // hold out half
			}
			logs, err := trainingLogs(task, task.Profile.RefBatch)
			if err != nil {
				return "", err
			}
			if err := pred.AddCompletedJob(logs); err != nil {
				return "", err
			}
		}
		// Held-out job: mid-sized ResNet50.
		var held workload.Task
		for _, task := range catalog {
			if task.Name == "resnet50-imagenet-14k" {
				held = task
			}
		}
		tr, err := perfmodel.NewTrainer(held.Profile, held.DatasetSize, held.Profile.RefBatch, true)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString("Figure 6 — online prediction of training progress (held-out job)\n")
		fmt.Fprintf(&b, "%12s %10s %10s %10s %10s\n", "# samples", "observed", "predicted", "ci90-lo", "ci90-hi")
		for !tr.Converged() {
			tr.AdvanceEpoch()
			d := pred.Predict(predictor.Features{
				DatasetSize: float64(tr.DatasetSize()),
				InitLoss:    held.Profile.InitLoss,
				Processed:   float64(tr.Processed()),
				LossRatio:   tr.LossRatio(),
				Accuracy:    tr.Accuracy(),
			})
			lo, hi := d.CI(0.9)
			fmt.Fprintf(&b, "%12d %10.3f %10.3f %10.3f %10.3f\n",
				tr.Processed(), tr.TrueProgress(), d.Mean(), lo, hi)
		}
		return b.String(), nil
	},
}

// trainingLogs simulates one job to convergence at a fixed batch and
// returns its labeled per-epoch predictor samples.
func trainingLogs(task workload.Task, batch int) ([]predictor.Sample, error) {
	tr, err := perfmodel.NewTrainer(task.Profile, task.DatasetSize, batch, true)
	if err != nil {
		return nil, err
	}
	var raw []predictor.Sample
	var processed []int64
	for !tr.Converged() {
		tr.AdvanceEpoch()
		raw = append(raw, predictor.Sample{X: predictor.Features{
			DatasetSize: float64(task.DatasetSize),
			InitLoss:    task.Profile.InitLoss,
			Processed:   float64(tr.Processed()),
			LossRatio:   tr.LossRatio(),
			Accuracy:    tr.Accuracy(),
		}})
		processed = append(processed, tr.Processed())
	}
	total := float64(tr.Processed())
	logs := raw[:0]
	for i := range raw {
		p := float64(processed[i]) / total
		if p <= 0 || p >= 1 {
			continue
		}
		raw[i].Progress = p
		logs = append(logs, raw[i])
	}
	return logs, nil
}
