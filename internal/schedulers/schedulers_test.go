package schedulers

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/simulator"
	"repro/internal/workload"
)

func testTrace(t testing.TB, n int, seed int64) (*workload.Trace, workload.Config) {
	t.Helper()
	cfg := workload.Config{Seed: seed, NumJobs: n, MeanInterarrival: 25, MaxReqGPUs: 4}
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, cfg
}

func runSched(t testing.TB, sched simulator.Scheduler, n int, seed int64) *simulator.Result {
	t.Helper()
	tr, _ := testTrace(t, n, seed)
	cfg := simulator.DefaultConfig(tr)
	cfg.Topo = cluster.Uniform(4, 4)
	res, err := simulator.Run(cfg, sched)
	if err != nil {
		t.Fatalf("%s: %v", sched.Traits().Name, err)
	}
	if res.Truncated {
		t.Fatalf("%s truncated with %d unfinished jobs", sched.Traits().Name, res.Unfinished)
	}
	if len(res.Jobs) != n {
		t.Fatalf("%s completed %d/%d jobs", sched.Traits().Name, len(res.Jobs), n)
	}
	return res
}

func TestFIFOCompletesTrace(t *testing.T) { runSched(t, NewFIFO(), 15, 1) }

func TestSJFCompletesTrace(t *testing.T) { runSched(t, NewSJF(), 15, 1) }

func TestTiresiasCompletesTrace(t *testing.T) { runSched(t, NewTiresias(), 15, 1) }

func TestOptimusCompletesTrace(t *testing.T) { runSched(t, NewOptimus(), 15, 1) }

func TestDRLCompletesTrace(t *testing.T) { runSched(t, NewDRL(7), 15, 1) }

func TestONESCompletesTrace(t *testing.T) {
	_, wcfg := testTrace(t, 15, 1)
	o := NewONES(7, wcfg.ArrivalRate())
	o.PopulationSize = 8 // keep the test fast
	runSched(t, o, 15, 1)
}

func TestONESBeatsFixedSizeBaselinesOnMeanJCT(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end comparison")
	}
	const n, seed = 25, 3
	_, wcfg := testTrace(t, n, seed)
	o := NewONES(7, wcfg.ArrivalRate())
	o.PopulationSize = 12
	ones := runSched(t, o, n, seed)
	tiresias := runSched(t, NewTiresias(), n, seed)
	fifo := runSched(t, NewFIFO(), n, seed)
	if ones.MeanJCT() >= tiresias.MeanJCT() {
		t.Errorf("ONES mean JCT %.1f should beat Tiresias %.1f", ones.MeanJCT(), tiresias.MeanJCT())
	}
	if ones.MeanJCT() >= fifo.MeanJCT() {
		t.Errorf("ONES mean JCT %.1f should beat FIFO %.1f", ones.MeanJCT(), fifo.MeanJCT())
	}
}

func TestTiresiasPrioritizesShortAttainedService(t *testing.T) {
	tires := NewTiresias()
	young := simulator.JobView{ExecTime: 10, GPUs: 1, Running: true}
	old := simulator.JobView{ExecTime: 5000, GPUs: 2, Running: true}
	if tires.queueOf(young) >= tires.queueOf(old) {
		t.Errorf("young job queue %d should be above old job queue %d",
			tires.queueOf(young), tires.queueOf(old))
	}
}

func TestOptimusRemainingEpochsFallsBackForFreshJobs(t *testing.T) {
	o := NewOptimus()
	tr, _ := testTrace(t, 1, 1)
	j := simulator.JobView{ID: 0, Task: tr.Jobs[0].Task, Accuracy: 0}
	rem := o.remainingEpochs(j)
	if rem < 1 {
		t.Errorf("remainingEpochs = %v, want >= 1", rem)
	}
	if rem > j.Task.Profile.BaseEpochs+1 {
		t.Errorf("fresh-job estimate %v exceeds nominal length %v", rem, j.Task.Profile.BaseEpochs)
	}
}

func TestOptimusUsesSlopeWhenHistoryAvailable(t *testing.T) {
	o := NewOptimus()
	tr, _ := testTrace(t, 1, 1)
	id := cluster.JobID(0)
	o.hist[id] = []obsPoint{{epochs: 1, acc: 0.2}, {epochs: 2, acc: 0.3}}
	j := simulator.JobView{ID: id, Task: tr.Jobs[0].Task, Accuracy: 0.3, WallEpochs: 2}
	rem := o.remainingEpochs(j)
	// Target ≈ 0.84 for the generated profiles; slope 0.1/epoch ⇒ ~5.4
	// epochs linear, ×1.5 padding ⇒ ~8. Anything in (1, 30) is sane.
	if rem <= 1 || rem > 30 {
		t.Errorf("slope-based estimate %v implausible", rem)
	}
}

func TestPlaceGangRespectsCapacity(t *testing.T) {
	s := cluster.NewSchedule(cluster.Uniform(1, 4))
	if !placeGang(s, 1, 4, 256, 0) {
		t.Fatal("placement of 4 GPUs on empty 4-GPU cluster failed")
	}
	if placeGang(s, 2, 1, 64, 0) {
		t.Error("placement on full cluster succeeded")
	}
	if got := s.GlobalBatch(1); got != 256 {
		t.Errorf("global batch %d, want 256", got)
	}
	if got := s.GPUCount(1); got != 4 {
		t.Errorf("gpus %d, want 4", got)
	}
}

func TestPlaceGangEvenSplit(t *testing.T) {
	s := cluster.NewSchedule(cluster.Uniform(1, 4))
	placeGang(s, 1, 3, 100, 0) // 34+33+33
	want := []int{34, 33, 33}
	for i, w := range want {
		if got := s.Slot(cluster.GPUID(i)).Batch; got != w {
			t.Errorf("slot %d batch %d, want %d", i, got, w)
		}
	}
}

// TestPlaceGangFitsMemory: the global batch is clamped so each GPU's
// share fits the model's memory cap; a cap of 0 means no cap.
func TestPlaceGangFitsMemory(t *testing.T) {
	for _, c := range []struct{ batch, maxPerGPU, want int }{
		{5000, 512, 1024},
		{100, 512, 100},
		{100, 0, 100},
	} {
		s := cluster.NewSchedule(cluster.Uniform(1, 4))
		if !placeGang(s, 1, 2, c.batch, c.maxPerGPU) {
			t.Fatalf("placeGang(2 GPUs, batch %d, cap %d) failed on an empty cluster", c.batch, c.maxPerGPU)
		}
		if got := s.GlobalBatch(1); got != c.want {
			t.Errorf("placeGang(2 GPUs, batch %d, cap %d) placed global batch %d, want %d", c.batch, c.maxPerGPU, got, c.want)
		}
	}
}

func TestONESDeterministic(t *testing.T) {
	run := func() float64 {
		_, wcfg := testTrace(t, 10, 5)
		o := NewONES(11, wcfg.ArrivalRate())
		o.PopulationSize = 6
		return runSched(t, o, 10, 5).MeanJCT()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("ONES nondeterministic: %v vs %v", a, b)
	}
}

func TestONESPredictorLearnsOnline(t *testing.T) {
	_, wcfg := testTrace(t, 12, 2)
	o := NewONES(3, wcfg.ArrivalRate())
	o.PopulationSize = 6
	runSched(t, o, 12, 2)
	if o.Predictor().Fits() == 0 {
		t.Error("predictor never refitted despite completed jobs")
	}
	if o.Predictor().TrainingSize() == 0 {
		t.Error("predictor training set empty after 12 completions")
	}
}

func TestONESUsesElasticCosts(t *testing.T) {
	o := NewONES(1, 0.05)
	if o.Traits().Cost != simulator.CostElastic {
		t.Error("ONES must use elastic scaling costs")
	}
	for _, s := range []simulator.Scheduler{NewFIFO(), NewTiresias(), NewOptimus(), NewDRL(1)} {
		if s.Traits().Cost != simulator.CostCheckpoint {
			t.Errorf("%s should use checkpoint-based migration", s.Traits().Name)
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	names := map[simulator.Scheduler]string{
		NewONES(1, 0): "ONES",
		NewDRL(1):     "DRL",
		NewTiresias(): "Tiresias",
		NewOptimus():  "Optimus",
		NewFIFO():     "FIFO",
		NewSJF():      "SJF",
	}
	for s, want := range names {
		if got := s.Traits().Name; got != want {
			t.Errorf("Traits().Name = %q, want %q", got, want)
		}
	}
}

func TestOptimusTickInterval(t *testing.T) {
	if got := NewOptimus().Traits().TickInterval; got != 600 {
		t.Errorf("Optimus interval %v, want the paper's 600 s", got)
	}
	for _, s := range []simulator.Scheduler{NewONES(1, 0), NewTiresias(), NewDRL(1), NewFIFO()} {
		if s.Traits().TickInterval != 0 {
			t.Errorf("%s should be event-driven", s.Traits().Name)
		}
	}
}

// TestSchedulerTraits pins every registered scheduler's fixed
// properties: its report name, Optimus's 10-minute interval (§4.2; the
// rest are event-driven), and the Table 3 columns that shape a run —
// only ONES rescales checkpoint-free and manages the learning rate.
func TestSchedulerTraits(t *testing.T) {
	want := map[string]simulator.Traits{
		"ones":     {Name: "ONES", Cost: simulator.CostElastic, ManagesLR: true},
		"drl":      {Name: "DRL", Cost: simulator.CostCheckpoint},
		"tiresias": {Name: "Tiresias", Cost: simulator.CostCheckpoint},
		"optimus":  {Name: "Optimus", TickInterval: 600, Cost: simulator.CostCheckpoint},
		"fifo":     {Name: "FIFO", Cost: simulator.CostCheckpoint},
		"sjf":      {Name: "SJF", Cost: simulator.CostCheckpoint},
	}
	if len(want) != len(Names()) {
		t.Errorf("table covers %d schedulers, registry has %v", len(want), Names())
	}
	for name, w := range want {
		s, err := New(name, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Traits(); got != w {
			t.Errorf("%s: Traits() = %+v, want %+v", name, got, w)
		}
	}
}
