package scaling

import (
	"testing"
	"testing/quick"

	"repro/internal/perfmodel"
)

func TestStartFitsSingleGPU(t *testing.T) {
	l := NewLimiter(1.0 / 30)
	p, err := perfmodel.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	r := l.Start(p)
	if r > p.MaxPerGPU {
		t.Errorf("Start limit %d exceeds MaxPerGPU %d", r, p.MaxPerGPU)
	}
	if r < MinBatch {
		t.Errorf("Start limit %d below MinBatch", r)
	}
	// A model whose reference batch exceeds GPU memory is clamped.
	small := p
	small.MaxPerGPU = 64
	if got := l.Start(small); got != 64 {
		t.Errorf("Start with tight memory = %d, want 64", got)
	}
}

func TestScaleUpDoubles(t *testing.T) {
	l := NewLimiter(0)
	if got := l.ScaleUp(256, 0); got != 512 {
		t.Errorf("ScaleUp(256) = %d, want 512", got)
	}
	if got := l.ScaleUp(256, 300); got != 300 {
		t.Errorf("ScaleUp capped = %d, want 300", got)
	}
	if got := l.ScaleUp(8, 0); got != MinBatch {
		t.Errorf("ScaleUp floor = %d, want %d", got, MinBatch)
	}
}

func TestRejectHalves(t *testing.T) {
	l := NewLimiter(0)
	if got := l.Reject(512); got != 256 {
		t.Errorf("Reject(512) = %d, want 256", got)
	}
	if got := l.Reject(MinBatch); got != MinBatch {
		t.Errorf("Reject at floor = %d, want %d", got, MinBatch)
	}
}

func TestScaleDownShortJobUnpenalized(t *testing.T) {
	// σ = 1/30 (mean interarrival 30 s): a job that has run 10 s has
	// ⌈σT+1⌉ = ⌈1.33⌉ = 2, so R' = R — no effective penalty yet.
	l := NewLimiter(1.0 / 30)
	if got := l.ScaleDown(512, 10); got != 512 {
		t.Errorf("ScaleDown(512, 10s) = %d, want 512", got)
	}
}

func TestScaleDownLongJobPenalized(t *testing.T) {
	l := NewLimiter(1.0 / 30)
	// After 300 s: ⌈10+1⌉ = 11; R' = ⌈1024/11⌉... with 2R: ⌈2048/11⌉ = 187.
	got := l.ScaleDown(1024, 300)
	if got >= 1024 {
		t.Errorf("long job not penalized: %d", got)
	}
	if got < MinBatch {
		t.Errorf("penalty broke the floor: %d", got)
	}
}

func TestScaleDownMonotoneInProcessedTimeProperty(t *testing.T) {
	l := NewLimiter(1.0 / 30)
	f := func(r16 uint16, t1, t2 float64) bool {
		r := int(r16)%4096 + MinBatch
		a, b := t1, t2
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		if a > b {
			a, b = b, a
		}
		return l.ScaleDown(r, a) >= l.ScaleDown(r, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaleDownNeverBelowFloorProperty(t *testing.T) {
	l := NewLimiter(0.5)
	f := func(r16 uint16, secs float64) bool {
		if secs < 0 {
			secs = -secs
		}
		r := int(r16) + 1
		return l.ScaleDown(r, secs) >= MinBatch
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewLimiterNegativeRateClamped(t *testing.T) {
	l := NewLimiter(-3)
	if l.Sigma != 0 {
		t.Errorf("Sigma = %v, want 0", l.Sigma)
	}
}

func TestCostModelFigure16Shape(t *testing.T) {
	models := []string{"alexnet", "resnet18", "resnet50", "vgg16", "googlenet", "inceptionv3", "lstm"}
	for _, name := range models {
		p, err := perfmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		el := ElasticCost(p, 2, 4)
		ck := CheckpointCost(p)
		if el <= 0 || ck <= 0 {
			t.Fatalf("%s: nonpositive costs %v %v", name, el, ck)
		}
		// The paper's headline: elastic ≈ 1 s, checkpoint ≈ tens of seconds.
		if el > 2.0 {
			t.Errorf("%s elastic cost %v too high (paper: ~0.3–1.2 s)", name, el)
		}
		if ck < 8 || ck > 25 {
			t.Errorf("%s checkpoint cost %v outside paper's 10–22 s band", name, ck)
		}
		if ck < 5*el {
			t.Errorf("%s: checkpoint (%v) should dwarf elastic (%v)", name, ck, el)
		}
	}
}

func TestElasticShrinkSkipsBroadcast(t *testing.T) {
	p, _ := perfmodel.ByName("vgg16")
	grow := ElasticCost(p, 2, 4)
	shrink := ElasticCost(p, 4, 2)
	if shrink >= grow {
		t.Errorf("shrink (%v) should be cheaper than grow (%v): no parameter broadcast", shrink, grow)
	}
	if shrink != elasticBase {
		t.Errorf("shrink cost = %v, want base %v", shrink, elasticBase)
	}
}

func TestCheckpointScalesWithModelSize(t *testing.T) {
	vgg, _ := perfmodel.ByName("vgg16")      // 138M params
	gnet, _ := perfmodel.ByName("googlenet") // 6.8M params
	if CheckpointCost(vgg) <= CheckpointCost(gnet) {
		t.Error("bigger model should checkpoint slower")
	}
}
