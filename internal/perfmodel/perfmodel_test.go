package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogValid(t *testing.T) {
	cat := Catalog()
	if len(cat) != 8 {
		t.Fatalf("catalog has %d models, want 8", len(cat))
	}
	for _, p := range cat {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "resnet50" {
		t.Errorf("ByName returned %q", p.Name)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown model")
	}
}

func TestStepTimeSingleGPUHasNoComm(t *testing.T) {
	p := CIFARResNet50()
	got := StepTime(p, 256, 1, 1)
	want := p.KernelOverhead + 256*p.SampleTime
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("StepTime single GPU = %v, want %v", got, want)
	}
}

func TestStepTimeGrowsWithWorkersAtFixedLocalBatch(t *testing.T) {
	p := CIFARResNet50()
	prev := StepTime(p, 256, 1, 1)
	for c := 2; c <= 8; c *= 2 {
		st := StepTime(p, 256*c, c, (c+3)/4)
		if st <= prev {
			t.Errorf("StepTime c=%d (%v) should exceed c=%d (%v)", c, st, c/2, prev)
		}
		prev = st
	}
}

func TestStepTimeCrossServerSlower(t *testing.T) {
	p := CIFARResNet50()
	same := StepTime(p, 1024, 4, 1)
	cross := StepTime(p, 1024, 4, 2)
	if cross <= same {
		t.Errorf("cross-server step %v should exceed same-server %v", cross, same)
	}
}

func TestStepTimeDegenerate(t *testing.T) {
	p := CIFARResNet50()
	if !math.IsInf(StepTime(p, 0, 1, 1), 1) {
		t.Error("zero batch should give +Inf step time")
	}
	if Throughput(p, 0, 1, 1) != 0 {
		t.Error("zero batch should give zero throughput")
	}
}

// TestFigure2Shape is the calibration check for Figure 2: with a fixed
// global batch of 256, throughput peaks at 2 workers and drops by 8; with
// an elastic batch (256 per worker), throughput rises monotonically and
// exceeds the fixed-batch peak substantially at 8 workers.
func TestFigure2Shape(t *testing.T) {
	p := CIFARResNet50()
	fixed := make([]float64, 9)
	elastic := make([]float64, 9)
	for c := 1; c <= 8; c++ {
		fixed[c] = PackedThroughput(p, 256, c, 4)
		elastic[c] = PackedThroughput(p, 256*c, c, 4)
	}
	if !(fixed[2] > fixed[1]) {
		t.Errorf("fixed batch should improve 1→2 workers: %v vs %v", fixed[1], fixed[2])
	}
	if !(fixed[8] < fixed[2]) {
		t.Errorf("fixed batch should degrade at 8 workers: c2=%v c8=%v", fixed[2], fixed[8])
	}
	// Monotone rise at the powers of two (between 4 and 5 workers the job
	// starts spanning two servers, which can cause a small local dip).
	for _, c := range []int{2, 4, 8} {
		if elastic[c] <= elastic[c/2] {
			t.Errorf("elastic throughput should rise: c=%d %v <= c=%d %v", c, elastic[c], c/2, elastic[c/2])
		}
	}
	if elastic[8] < 2*fixed[2] {
		t.Errorf("elastic at 8 workers (%v) should be well above fixed peak (%v)", elastic[8], fixed[2])
	}
	// Sanity: absolute range roughly matches the paper's 2000–8000 img/s axis.
	if elastic[8] < 4000 || elastic[8] > 12000 {
		t.Errorf("elastic c=8 throughput %v out of plausible range", elastic[8])
	}
}

// TestFigure3Shape checks the convergence model: fixed local batch 256 and
// more GPUs (bigger global batch, no LR scaling) converges slower and
// plateaus lower.
func TestFigure3Shape(t *testing.T) {
	p := CIFARResNet50()
	const epochs = 200.0
	accAt := func(c int) float64 {
		B := 256 * c
		eff := epochs / EpochPenalty(p, B, false)
		return AccuracyAt(p, eff, B, false)
	}
	prev := math.Inf(1)
	for _, c := range []int{1, 2, 4, 8} {
		a := accAt(c)
		if a >= prev {
			t.Errorf("accuracy with %d GPUs (%v) should be below fewer GPUs (%v)", c, a, prev)
		}
		prev = a
	}
	if gap := accAt(1) - accAt(8); gap < 0.05 {
		t.Errorf("1 vs 8 GPU accuracy gap %v too small to reproduce Figure 3", gap)
	}
}

func TestEpochPenaltyProperties(t *testing.T) {
	p := CIFARResNet50()
	if got := EpochPenalty(p, p.RefBatch, false); got != 1 {
		t.Errorf("penalty at ref batch = %v, want 1", got)
	}
	if got := EpochPenalty(p, p.RefBatch/2, false); got != 1 {
		t.Errorf("penalty below ref batch = %v, want 1", got)
	}
	f := func(rb uint16) bool {
		b := int(rb)%8192 + 1
		unscaled := EpochPenalty(p, b, false)
		scaled := EpochPenalty(p, b, true)
		return scaled <= unscaled && scaled >= 1 && unscaled >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !math.IsInf(EpochPenalty(p, 0, false), 1) {
		t.Error("penalty at zero batch should be +Inf")
	}
}

func TestLRScalingRemovesPenaltyUpToCritical(t *testing.T) {
	p := CIFARResNet50()
	if got := EpochPenalty(p, p.ScaledCrit, true); got != 1 {
		t.Errorf("penalty at critical batch with LR scaling = %v, want 1", got)
	}
	if got := EpochPenalty(p, 4*p.ScaledCrit, true); got <= 1 {
		t.Errorf("penalty beyond critical batch = %v, want > 1", got)
	}
}

func TestAccCeiling(t *testing.T) {
	p := CIFARResNet50()
	if got := AccCeiling(p, p.RefBatch, false); got != p.AccMax {
		t.Errorf("ceiling at ref batch = %v", got)
	}
	if got := AccCeiling(p, 16*p.RefBatch, false); got >= p.AccMax {
		t.Errorf("large-batch ceiling %v should drop below %v", got, p.AccMax)
	}
	if got := AccCeiling(p, 16*p.RefBatch, true); got != p.AccMax {
		t.Errorf("LR-scaled ceiling = %v, want %v", got, p.AccMax)
	}
	// Ceiling is floored so it never collapses to zero.
	if got := AccCeiling(p, 1<<30, false); got < p.TargetAcc*0.5-1e-9 {
		t.Errorf("ceiling floor violated: %v", got)
	}
}

func TestEpochsToTargetFiniteAndOrdered(t *testing.T) {
	p := CIFARResNet50()
	e1 := EpochsToTarget(p, 256, true)
	e2 := EpochsToTarget(p, 8192, true)
	if math.IsInf(e1, 1) || e1 <= 0 {
		t.Fatalf("EpochsToTarget(256) = %v", e1)
	}
	if e2 <= e1 {
		t.Errorf("huge batch should need more epochs: %v vs %v", e2, e1)
	}
	// Without LR scaling a 16× batch cannot reach the target (ceiling drops
	// below it) — EpochsToTarget must be +Inf.
	if got := EpochsToTarget(p, 16*256, false); !math.IsInf(got, 1) {
		// Only expected when the ceiling actually fell below target.
		if AccCeiling(p, 16*256, false) < p.TargetAcc {
			t.Errorf("expected +Inf epochs, got %v", got)
		}
	}
}

func TestServersNeeded(t *testing.T) {
	cases := []struct{ c, per, want int }{
		{1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {9, 4, 3}, {3, 0, 1},
	}
	for _, c := range cases {
		if got := serversNeeded(c.c, c.per); got != c.want {
			t.Errorf("serversNeeded(%d,%d) = %d, want %d", c.c, c.per, got, c.want)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	good := CIFARResNet50()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.SampleTime = 0
	if bad.Validate() == nil {
		t.Error("zero SampleTime accepted")
	}
	bad = good
	bad.TargetAcc = bad.AccMax + 0.1
	if bad.Validate() == nil {
		t.Error("target above ceiling accepted")
	}
}
