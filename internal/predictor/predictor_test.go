package predictor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// syntheticJob builds per-epoch log samples for a job with the given total
// epochs and dataset size: progress at epoch e is e/total.
func syntheticJob(datasetSize float64, totalEpochs int) []Sample {
	logs := make([]Sample, 0, totalEpochs-1)
	for e := 1; e < totalEpochs; e++ {
		progress := float64(e) / float64(totalEpochs)
		logs = append(logs, Sample{
			X: Features{
				DatasetSize: datasetSize,
				InitLoss:    2.3,
				Processed:   float64(e) * datasetSize,
				LossRatio:   progress * 0.9,
				Accuracy:    progress * 0.85,
			},
			Progress: progress,
		})
	}
	return logs
}

func TestPredictDefaultPrior(t *testing.T) {
	p := New(1, DefaultConfig())
	d := p.Predict(Features{DatasetSize: 1000, Processed: 3000})
	if d.Alpha != 3 {
		t.Errorf("alpha = %v, want 3 (processed epochs)", d.Alpha)
	}
	if d.Beta != DefaultConfig().PriorEpochs {
		t.Errorf("beta = %v, want prior %v", d.Beta, DefaultConfig().PriorEpochs)
	}
}

func TestAlphaThresholdedAtOne(t *testing.T) {
	p := New(1, DefaultConfig())
	d := p.Predict(Features{DatasetSize: 1000, Processed: 10}) // 0.01 epochs
	if d.Alpha != 1 {
		t.Errorf("alpha = %v, want clamp at 1", d.Alpha)
	}
	d = p.Predict(Features{DatasetSize: 0, Processed: 10})
	if d.Alpha != 1 {
		t.Errorf("alpha with zero dataset = %v, want 1", d.Alpha)
	}
}

func TestAddCompletedJobRejectsBadProgress(t *testing.T) {
	p := New(1, DefaultConfig())
	if err := p.AddCompletedJob([]Sample{{Progress: 0}}); err == nil {
		t.Error("progress 0 accepted")
	}
	if err := p.AddCompletedJob([]Sample{{Progress: 1}}); err == nil {
		t.Error("progress 1 accepted")
	}
	if err := p.AddCompletedJob([]Sample{{Progress: 1.5}}); err == nil {
		t.Error("progress 1.5 accepted")
	}
}

func TestFitImprovesLikelihood(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FitIters = 0 // delay fitting so we can measure before/after
	p := New(1, cfg)
	// Bypassing iterations: insert data with zero fit, record LL, then fit.
	jobs := [][]Sample{
		syntheticJob(10000, 12),
		syntheticJob(20000, 20),
		syntheticJob(5000, 8),
		syntheticJob(40000, 30),
	}
	for _, j := range jobs {
		if err := p.AddCompletedJob(j); err != nil {
			t.Fatal(err)
		}
	}
	before := p.LogLikelihood()
	p.mu.Lock()
	p.cfg.FitIters = 400
	p.cfg.LearnRate = 0.05
	p.fitLocked()
	p.mu.Unlock()
	after := p.LogLikelihood()
	if after <= before {
		t.Errorf("fit did not improve likelihood: %v -> %v", before, after)
	}
}

func TestPredictionTracksTrueProgress(t *testing.T) {
	p := New(1, DefaultConfig())
	// Train on many jobs whose remaining epochs correlate with features.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		total := 8 + rng.Intn(25)
		size := float64(5000 + rng.Intn(35000))
		if err := p.AddCompletedJob(syntheticJob(size, total)); err != nil {
			t.Fatal(err)
		}
	}
	// Held-out job: 20 epochs over 15k samples. The predictive mean at
	// epoch e should increase with e and be correlated with truth.
	var prevMean float64 = -1
	var sumErr float64
	logs := syntheticJob(15000, 20)
	for _, s := range logs {
		d := p.Predict(s.X)
		m := d.Mean()
		if m <= 0 || m >= 1 {
			t.Fatalf("predictive mean %v outside (0,1)", m)
		}
		if m < prevMean-0.05 {
			t.Errorf("predictive mean regressed badly: %v after %v", m, prevMean)
		}
		prevMean = m
		sumErr += math.Abs(m - s.Progress)
	}
	if mae := sumErr / float64(len(logs)); mae > 0.25 {
		t.Errorf("mean absolute error %v too large — predictor not learning", mae)
	}
}

func TestReservoirBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReservoirCap = 50
	cfg.FitIters = 1
	p := New(1, cfg)
	for i := 0; i < 40; i++ {
		if err := p.AddCompletedJob(syntheticJob(10000, 15)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.TrainingSize(); got != 50 {
		t.Errorf("reservoir size = %d, want cap 50", got)
	}
	if p.Fits() != 40 {
		t.Errorf("fits = %d, want 40", p.Fits())
	}
}

func TestBetaAlwaysAtLeastOneProperty(t *testing.T) {
	p := New(3, DefaultConfig())
	for i := 0; i < 10; i++ {
		_ = p.AddCompletedJob(syntheticJob(float64(1000*(i+1)), 10+i))
	}
	f := func(size, processed, lossRatio, acc float64) bool {
		x := Features{
			DatasetSize: math.Abs(math.Mod(size, 1e6)),
			InitLoss:    2.3,
			Processed:   math.Abs(math.Mod(processed, 1e8)),
			LossRatio:   math.Mod(math.Abs(lossRatio), 1),
			Accuracy:    math.Mod(math.Abs(acc), 1),
		}
		d := p.Predict(x)
		return d.Alpha >= 1 && d.Beta >= 1 &&
			!math.IsNaN(d.Alpha) && !math.IsNaN(d.Beta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistCI(t *testing.T) {
	d := Dist{Alpha: 5, Beta: 10}
	lo, hi := d.CI(0.9)
	if !(0 < lo && lo < d.Mean() && d.Mean() < hi && hi < 1) {
		t.Errorf("CI (%v, %v) should bracket mean %v", lo, hi, d.Mean())
	}
	loW, hiW := d.CI(0.5)
	if hiW-loW >= hi-lo {
		t.Errorf("50%% CI (%v) should be narrower than 90%% CI (%v)", hiW-loW, hi-lo)
	}
}

func TestDistSampleInOpenInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := Dist{Alpha: 1, Beta: 1}
	for i := 0; i < 1000; i++ {
		v := d.Sample(rng)
		if v <= 0 || v >= 1 {
			t.Fatalf("sample %v outside open interval", v)
		}
	}
}

func TestPredictorDeterministicAcrossRuns(t *testing.T) {
	run := func() Dist {
		p := New(42, DefaultConfig())
		for i := 0; i < 5; i++ {
			_ = p.AddCompletedJob(syntheticJob(10000, 12+i))
		}
		return p.Predict(Features{DatasetSize: 12000, InitLoss: 2.3, Processed: 36000, LossRatio: 0.4, Accuracy: 0.5})
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed predictors disagree: %+v vs %+v", a, b)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	p := New(1, Config{}) // all zero: defaults must kick in
	if p.cfg.ReservoirCap != DefaultConfig().ReservoirCap {
		t.Errorf("ReservoirCap default not applied: %d", p.cfg.ReservoirCap)
	}
	if p.bias != DefaultConfig().PriorEpochs {
		t.Errorf("PriorEpochs default not applied: %v", p.bias)
	}
}

// TestLazyRefitMatchesEagerOrder pins the deferred refit against the
// eager order it replaces. Two predictors ingest the same random
// completed-job logs. The eager one reads Fits after every
// AddCompletedJob, which runs each refit at once; the lazy one reads at
// random points only, with runs of adds and no read between. At every
// lazy read both must agree bit for bit on Predict over fixed features,
// on LogLikelihood and on Fits. A deferred refit that ran over a later
// reservoir, or one refit standing in for several, would show.
func TestLazyRefitMatchesEagerOrder(t *testing.T) {
	probes := []Features{
		{DatasetSize: 12000, InitLoss: 2.3, Processed: 36000, LossRatio: 0.4, Accuracy: 0.5},
		{DatasetSize: 50000, InitLoss: 1.1, Processed: 900000, LossRatio: 0.8, Accuracy: 0.9},
	}
	cfg := Config{ReservoirCap: 40, FitIters: 25}
	unreadRuns := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eager, lazy := New(seed, cfg), New(seed, cfg)
		unread := 0
		for i := 0; i < 30; i++ {
			logs := syntheticJob(float64(2000+rng.Intn(40000)), 3+rng.Intn(20))
			if err := eager.AddCompletedJob(logs); err != nil {
				t.Fatal(err)
			}
			eager.Fits()
			if err := lazy.AddCompletedJob(logs); err != nil {
				t.Fatal(err)
			}
			if unread++; rng.Intn(3) != 0 && i < 29 {
				continue
			}
			if unread > 1 {
				unreadRuns++
			}
			unread = 0
			for _, x := range probes {
				if got, want := lazy.Predict(x), eager.Predict(x); got != want {
					t.Fatalf("seed %d, job %d: lazy Predict %+v, eager %+v", seed, i, got, want)
				}
			}
			if got, want := lazy.LogLikelihood(), eager.LogLikelihood(); got != want {
				t.Fatalf("seed %d, job %d: lazy LogLikelihood %v, eager %v", seed, i, got, want)
			}
			if got, want := lazy.Fits(), eager.Fits(); got != want {
				t.Fatalf("seed %d, job %d: lazy Fits %d, eager %d", seed, i, got, want)
			}
		}
	}
	if unreadRuns == 0 {
		t.Fatal("no two adds went unread in a row; the test does not exercise the deferral")
	}
}
