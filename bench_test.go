// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of ONES's design choices. Each benchmark
// reports the experiment's headline quantity through b.ReportMetric so the
// -bench output doubles as a results table.
package repro_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/schedulers"
	"repro/internal/simulator"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runExperiment renders one named experiment on a fresh quick runner.
func runExperiment(b *testing.B, name string) string {
	b.Helper()
	e, err := experiments.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	out, err := e.Run(context.Background(), engine.NewRunner(engine.QuickParams()))
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// --- Figure 2: throughput vs workers, elastic vs fixed batch ---

func BenchmarkFig02ThroughputCurves(b *testing.B) {
	p := perfmodel.CIFARResNet50()
	net := perfmodel.DefaultNetwork()
	var elastic8, fixedPeak float64
	for i := 0; i < b.N; i++ {
		fixedPeak = 0
		for c := 1; c <= 8; c++ {
			if x := perfmodel.PackedThroughput(p, net, 256, c, 4); x > fixedPeak {
				fixedPeak = x
			}
			elastic8 = perfmodel.PackedThroughput(p, net, 256*c, c, 4)
		}
	}
	b.ReportMetric(elastic8, "elastic-c8-img/s")
	b.ReportMetric(fixedPeak, "fixed-peak-img/s")
}

// --- Figure 3: convergence vs GPUs at fixed local batch ---

func BenchmarkFig03ConvergenceCurves(b *testing.B) {
	p := perfmodel.CIFARResNet50()
	var acc1, acc8 float64
	for i := 0; i < b.N; i++ {
		for _, c := range []int{1, 2, 4, 8} {
			B := 256 * c
			eff := 200 / perfmodel.EpochPenalty(p, B, false)
			a := perfmodel.AccuracyAt(p, eff, B, false)
			if c == 1 {
				acc1 = a
			}
			if c == 8 {
				acc8 = a
			}
		}
	}
	b.ReportMetric(acc1, "acc-1gpu")
	b.ReportMetric(acc8, "acc-8gpu")
}

// --- Figure 6: online progress prediction ---

func BenchmarkFig06OnlinePredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExperiment(b, "fig6")
	}
}

// --- Table 2: workload generation ---

func BenchmarkTable2TraceGeneration(b *testing.B) {
	cfg := workload.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 13/14: loss under abrupt vs gradual rescaling ---

func BenchmarkFig13AbruptRescale(b *testing.B) {
	var spike float64
	for i := 0; i < b.N; i++ {
		tr, err := perfmodel.NewTrainer(perfmodel.CIFARResNet50(), 40000, 256, true)
		if err != nil {
			b.Fatal(err)
		}
		for e := 0; e < 30; e++ {
			tr.AdvanceEpoch()
		}
		before := tr.Loss()
		tr.SetBatch(4096)
		spike = tr.Loss() - before
	}
	b.ReportMetric(spike, "loss-spike")
}

func BenchmarkFig14GradualRescale(b *testing.B) {
	var spike float64
	for i := 0; i < b.N; i++ {
		tr, err := perfmodel.NewTrainer(perfmodel.CIFARResNet50(), 40000, 256, true)
		if err != nil {
			b.Fatal(err)
		}
		for e := 0; e < 30; e++ {
			tr.AdvanceEpoch()
		}
		before := tr.Loss()
		tr.SetBatch(1024)
		for e := 0; e < 30; e++ {
			tr.AdvanceEpoch()
		}
		tr.SetBatch(4096)
		if d := tr.Loss() - before; d > spike {
			spike = d
		}
	}
	b.ReportMetric(spike, "loss-spike")
}

// --- Figure 15 / Table 4: the headline comparison ---

// fig15Once caches one quick comparison so Table 4 and the distribution
// benches don't re-run the simulations inside the timed loop.
var fig15Once struct {
	sync.Once
	results []*simulator.Result
	err     error
}

func fig15Results(b *testing.B) []*simulator.Result {
	fig15Once.Do(func() {
		r := engine.NewRunner(engine.QuickParams())
		fig15Once.results, fig15Once.err = r.Compare(context.Background(), 0, engine.PaperSchedulers())
	})
	if fig15Once.err != nil {
		b.Fatal(fig15Once.err)
	}
	return fig15Once.results
}

func BenchmarkFig15SchedulerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := engine.NewRunner(engine.QuickParams())
		results, err := r.Compare(context.Background(), 0, engine.PaperSchedulers())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Scheduler {
			case "ONES":
				b.ReportMetric(r.MeanJCT(), "ones-jct-s")
			case "Tiresias":
				b.ReportMetric(r.MeanJCT(), "tiresias-jct-s")
			case "DRL":
				b.ReportMetric(r.MeanJCT(), "drl-jct-s")
			case "Optimus":
				b.ReportMetric(r.MeanJCT(), "optimus-jct-s")
			}
		}
	}
}

func BenchmarkTable4Wilcoxon(b *testing.B) {
	results := fig15Results(b)
	var ones, base []float64
	for _, r := range results {
		if r.Scheduler == "ONES" {
			ones = r.JCTs()
		}
		if r.Scheduler == "Tiresias" {
			base = r.JCTs()
		}
	}
	b.ResetTimer()
	var p float64
	for i := 0; i < b.N; i++ {
		res, err := stats.Wilcoxon(ones, base, stats.TwoSided)
		if err != nil {
			b.Fatal(err)
		}
		p = res.P
	}
	b.ReportMetric(p, "p-two-sided")
}

// --- Figure 16: live scaling overheads ---

func benchRescale(b *testing.B, viaCheckpoint bool) {
	spec := runtime.Spec{
		Name:        "bench",
		ParamCount:  1 << 18,
		GlobalBatch: 256,
		LR:          0.05,
		Momentum:    0.9,
		DatasetSize: 1 << 18,
	}
	var total float64
	for i := 0; i < b.N; i++ {
		j, err := runtime.Start(spec, 2)
		if err != nil {
			b.Fatal(err)
		}
		var secs float64
		if viaCheckpoint {
			d, err := j.RescaleCheckpoint(4, 512)
			if err != nil {
				b.Fatal(err)
			}
			secs = d.Seconds()
		} else {
			d, err := j.RescaleElastic(4, 512)
			if err != nil {
				b.Fatal(err)
			}
			secs = d.Seconds()
		}
		total += secs
		j.Stop()
	}
	b.ReportMetric(total/float64(b.N)*1000, "interrupt-ms")
}

func BenchmarkFig16ElasticScaling(b *testing.B)    { benchRescale(b, false) }
func BenchmarkFig16CheckpointScaling(b *testing.B) { benchRescale(b, true) }

// --- Figures 17/18: scalability sweep ---

func BenchmarkFig17Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := engine.QuickParams()
		p.Capacities = []int{16, 64}
		r := engine.NewRunner(p)
		// Warm the whole sweep in one batch; the per-capacity reads
		// below are cache hits.
		if _, err := r.Results(context.Background(), engine.SweepCells(engine.PaperSchedulers(), p.Capacities)); err != nil {
			b.Fatal(err)
		}
		for _, capGPUs := range p.Capacities {
			results, err := r.Compare(context.Background(), capGPUs, engine.PaperSchedulers())
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				if res.Scheduler == "ONES" {
					if capGPUs == 16 {
						b.ReportMetric(res.MeanJCT(), "ones-16gpu-jct-s")
					} else {
						b.ReportMetric(res.MeanJCT(), "ones-64gpu-jct-s")
					}
				}
			}
		}
	}
}

// --- Scenario sweep: robustness under changing worlds ---

func BenchmarkScenarioNodeFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := engine.NewRunner(engine.QuickParams())
		res, err := r.Result(context.Background(), engine.Cell{Scheduler: "ones", Scenario: "node-failure"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanJCT(), "ones-jct-s")
		b.ReportMetric(float64(res.Evictions), "evictions")
	}
}

func BenchmarkScenarioBurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := engine.NewRunner(engine.QuickParams())
		res, err := r.Result(context.Background(), engine.Cell{Scheduler: "ones", Scenario: "burst"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanJCT(), "ones-jct-s")
	}
}

// --- Engine: worker-pool scaling on the full sweep ---

func benchEngineSweep(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		p := engine.QuickParams()
		p.Workers = workers
		r := engine.NewRunner(p)
		cells := engine.SweepCells(engine.PaperSchedulers(), p.Capacities)
		if _, err := r.Results(context.Background(), cells); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSweepSerial(b *testing.B)   { benchEngineSweep(b, 1) }
func BenchmarkEngineSweepParallel(b *testing.B) { benchEngineSweep(b, 0) }

// --- Evolution hot path: the headline perf benchmark ---

// BenchmarkEvolution500Jobs is the headline wall-time benchmark for the
// evolution hot path: one full ONES simulation of a 500-job trace on a
// 32-GPU cluster. Nearly all of its time is spent inside
// evolution.Engine.Iterate (candidate generation + SRUF scoring), so its
// ns/op tracks the optimizations guarded by BENCH_6.json: the throughput
// memo, one-pass genome aggregation, recycled candidate genomes and the
// flat event queue.
func BenchmarkEvolution500Jobs(b *testing.B) {
	cfg := workload.Config{Seed: 6, NumJobs: 500, MeanInterarrival: 12, MaxReqGPUs: 8}
	tr, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var jct float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := schedulers.NewONES(6, cfg.ArrivalRate())
		o.PopulationSize = 16
		scfg := simulator.DefaultConfig(tr)
		scfg.Topo = cluster.Uniform(8, 4)
		res, err := simulator.Run(scfg, o)
		if err != nil {
			b.Fatal(err)
		}
		jct = res.MeanJCT()
	}
	b.ReportMetric(jct, "ones-jct-s")
}

// --- Ablations of ONES's design choices ---

func ablationTrace(b *testing.B) (*workload.Trace, workload.Config) {
	cfg := workload.Config{Seed: 9, NumJobs: 30, MeanInterarrival: 12, MaxReqGPUs: 8}
	tr, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tr, cfg
}

func runAblation(b *testing.B, mutate func(*schedulers.ONES)) float64 {
	tr, wcfg := ablationTrace(b)
	o := schedulers.NewONES(9, wcfg.ArrivalRate())
	o.PopulationSize = 10
	if mutate != nil {
		mutate(o)
	}
	cfg := simulator.DefaultConfig(tr)
	cfg.Topo = cluster.Uniform(8, 4)
	res, err := simulator.Run(cfg, o)
	if err != nil {
		b.Fatal(err)
	}
	return res.MeanJCT()
}

func BenchmarkAblationGreedyVsEvolution(b *testing.B) {
	// Degenerate the evolution to a single greedily-refreshed schedule
	// (population 1, no mutation) and compare with the full search.
	var full, greedy float64
	for i := 0; i < b.N; i++ {
		full = runAblation(b, nil)
		greedy = runAblation(b, func(o *schedulers.ONES) {
			o.PopulationSize = 1
			o.MutationRate = 0
		})
	}
	b.ReportMetric(full, "evolution-jct-s")
	b.ReportMetric(greedy, "greedy-jct-s")
}

func BenchmarkAblationSamplingVsMean(b *testing.B) {
	var sampled, mean float64
	for i := 0; i < b.N; i++ {
		sampled = runAblation(b, nil)
		mean = runAblation(b, func(o *schedulers.ONES) { o.DisableSampling = true })
	}
	b.ReportMetric(sampled, "sampled-jct-s")
	b.ReportMetric(mean, "mean-scored-jct-s")
}

func BenchmarkAblationReorder(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = runAblation(b, nil)
		without = runAblation(b, func(o *schedulers.ONES) { o.DisableReorder = true })
	}
	b.ReportMetric(with, "reorder-jct-s")
	b.ReportMetric(without, "no-reorder-jct-s")
}

func BenchmarkAblationConvoyPenalty(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = runAblation(b, nil)
		without = runAblation(b, func(o *schedulers.ONES) { o.DisableScaleDown = true })
	}
	b.ReportMetric(with, "convoy-penalty-jct-s")
	b.ReportMetric(without, "no-penalty-jct-s")
}

func BenchmarkAblationPopulationSize(b *testing.B) {
	var small, large float64
	for i := 0; i < b.N; i++ {
		small = runAblation(b, func(o *schedulers.ONES) { o.PopulationSize = 4 })
		large = runAblation(b, func(o *schedulers.ONES) { o.PopulationSize = 20 })
	}
	b.ReportMetric(small, "pop4-jct-s")
	b.ReportMetric(large, "pop20-jct-s")
}
