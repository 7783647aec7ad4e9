package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/scaling"
	"repro/internal/simulator"
)

// Fig16Row is one model's measured and calibrated scaling overheads.
type Fig16Row struct {
	Model              string
	ElasticMeasured    float64 // seconds, live mini-cluster
	CheckpointMeasured float64 // seconds, live mini-cluster
	ElasticPaper       float64 // seconds, calibrated cost model
	CheckpointPaper    float64 // seconds, calibrated cost model
}

// fig16 measures the scaling overheads on the live runtime for each model
// in the paper's Figure 16, alongside the cost model calibrated to the
// paper's testbed magnitudes. Note: the "live" columns are wall-clock
// measurements of the goroutine mini-cluster, so — unlike every other
// experiment — their digits vary run to run.
var fig16 = engine.Experiment{
	Name:  "fig16",
	Title: "live scaling overhead: elastic vs checkpoint-based (measured)",
	Run: func(p engine.Params, _ []*simulator.Result) (string, error) {
		rows, err := Fig16Rows(p)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString("Figure 16 — batch-size scaling overhead: elastic vs checkpoint-based (s)\n")
		fmt.Fprintf(&b, "%-12s %16s %16s %14s %14s\n",
			"model", "elastic (live)", "ckpt (live)", "elastic (cal)", "ckpt (cal)")
		for _, row := range rows {
			fmt.Fprintf(&b, "%-12s %16.4f %16.4f %14.2f %14.2f\n",
				row.Model, row.ElasticMeasured, row.CheckpointMeasured, row.ElasticPaper, row.CheckpointPaper)
		}
		b.WriteString("(live columns: measured on the goroutine mini-cluster with models scaled down\n")
		fmt.Fprintf(&b, " by %dx; calibrated columns: cost model matching the paper's V100 testbed)\n", p.ParamScale)
		return b.String(), nil
	},
}

// Fig16Rows measures one 2→4 rescale per model, elastic and
// checkpoint-based, on the live goroutine runtime, with each model's
// parameter count divided by the normalized params' ParamScale.
func Fig16Rows(p engine.Params) ([]Fig16Row, error) {
	models := []string{"alexnet", "resnet18", "resnet50", "vgg16", "googlenet", "inceptionv3", "lstm"}
	rows := make([]Fig16Row, 0, len(models))
	for _, name := range models {
		prof, err := perfmodel.ByName(name)
		if err != nil {
			return nil, err
		}
		params := int(prof.GradBytes/4) / p.ParamScale
		if params < 1024 {
			params = 1024
		}
		spec := runtime.Spec{
			Name:        name,
			ParamCount:  params,
			GlobalBatch: 256,
			LR:          0.05,
			Momentum:    0.9,
			DatasetSize: 1 << 18,
		}
		elastic, err := measureRescale(spec, false)
		if err != nil {
			return nil, err
		}
		checkpoint, err := measureRescale(spec, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig16Row{
			Model:              name,
			ElasticMeasured:    elastic,
			CheckpointMeasured: checkpoint,
			ElasticPaper:       scaling.ElasticCost(prof, 2, 4),
			CheckpointPaper:    scaling.CheckpointCost(prof),
		})
	}
	return rows, nil
}

// measureRescale times one 2→4 worker rescale on the live runtime.
func measureRescale(spec runtime.Spec, viaCheckpoint bool) (float64, error) {
	j, err := runtime.Start(spec, 2)
	if err != nil {
		return 0, err
	}
	defer j.Stop()
	if viaCheckpoint {
		d, err := j.RescaleCheckpoint(4, 2*spec.GlobalBatch)
		return d.Seconds(), err
	}
	d, err := j.RescaleElastic(4, 2*spec.GlobalBatch)
	return d.Seconds(), err
}
