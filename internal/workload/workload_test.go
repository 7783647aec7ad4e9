package workload

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/scenario"
)

func TestCatalogHasFiftyTaskTypes(t *testing.T) {
	cat := Catalog()
	if len(cat) != 50 {
		t.Fatalf("catalog has %d task types, Table 2 lists 50", len(cat))
	}
	byClass := map[TaskClass]int{}
	for _, task := range cat {
		byClass[task.Class]++
		if err := task.Profile.Validate(); err != nil {
			t.Errorf("task %s: %v", task.Name, err)
		}
		if task.DatasetSize <= 0 || task.Classes <= 0 {
			t.Errorf("task %s has degenerate sizes: %+v", task.Name, task)
		}
	}
	if byClass[ClassCVImageNet] != 24 {
		t.Errorf("ImageNet tasks = %d, want 24", byClass[ClassCVImageNet])
	}
	if byClass[ClassCVCIFAR] != 15 {
		t.Errorf("CIFAR tasks = %d, want 15", byClass[ClassCVCIFAR])
	}
	if byClass[ClassNLP] != 11 {
		t.Errorf("NLP tasks = %d, want 11", byClass[ClassNLP])
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, task := range Catalog() {
		if seen[task.Name] {
			t.Errorf("duplicate task name %q", task.Name)
		}
		seen[task.Name] = true
	}
}

func TestCIFARProfilesAreFasterPerSample(t *testing.T) {
	var imagenetVGG, cifarVGG float64
	for _, task := range Catalog() {
		if task.Model != "vgg16" {
			continue
		}
		switch task.Class {
		case ClassCVImageNet:
			imagenetVGG = task.Profile.SampleTime
		case ClassCVCIFAR:
			cifarVGG = task.Profile.SampleTime
		}
	}
	if imagenetVGG == 0 || cifarVGG == 0 {
		t.Fatal("missing vgg16 tasks")
	}
	if cifarVGG >= imagenetVGG {
		t.Errorf("CIFAR vgg16 sample time %v should be below ImageNet %v", cifarVGG, imagenetVGG)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("nondeterministic length: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		if a.Jobs[i].Submit != b.Jobs[i].Submit || a.Jobs[i].Task.Name != b.Jobs[i].Task.Name {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 99
	b, _ := Generate(cfg)
	same := true
	for i := range a.Jobs {
		if a.Jobs[i].Task.Name != b.Jobs[i].Task.Name {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical job sequences")
	}
}

func TestGenerateValidates(t *testing.T) {
	if _, err := Generate(Config{NumJobs: 0, MeanInterarrival: 30}); err == nil {
		t.Error("NumJobs=0 accepted")
	}
	if _, err := Generate(Config{NumJobs: 5, MeanInterarrival: 0}); err == nil {
		t.Error("MeanInterarrival=0 accepted")
	}
	if _, err := Generate(Config{NumJobs: MaxJobs + 1, MeanInterarrival: 30}); err == nil {
		t.Errorf("NumJobs=%d accepted, over MaxJobs", MaxJobs+1)
	}
}

func TestGeneratedTraceIsValid(t *testing.T) {
	tr, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != DefaultConfig().NumJobs {
		t.Errorf("trace has %d jobs", len(tr.Jobs))
	}
}

func TestGenerateRespectsMaxReqGPUs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxReqGPUs = 2
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if j.ReqGPUs > 2 {
			t.Fatalf("job %d requests %d GPUs, cap was 2", j.ID, j.ReqGPUs)
		}
	}
}

func TestGenerateBatchMatchesGPURequest(t *testing.T) {
	tr, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if j.ReqBatch != j.Task.Profile.RefBatch*j.ReqGPUs {
			t.Fatalf("job %d batch %d != RefBatch %d × GPUs %d",
				j.ID, j.ReqBatch, j.Task.Profile.RefBatch, j.ReqGPUs)
		}
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr, err := Generate(Config{Seed: 7, NumJobs: 10, MeanInterarrival: 20})
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(tr.Jobs) || back.Seed != tr.Seed {
		t.Fatal("round trip lost jobs")
	}
	for i := range tr.Jobs {
		if back.Jobs[i] != tr.Jobs[i] {
			t.Fatalf("job %d changed in round trip:\n%+v\n%+v", i, tr.Jobs[i], back.Jobs[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{")); err == nil {
		t.Error("garbage JSON accepted")
	}
}

func TestSummarize(t *testing.T) {
	tr, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Summarize()
	if s.Jobs != len(tr.Jobs) {
		t.Errorf("summary jobs %d", s.Jobs)
	}
	var total int
	for _, n := range s.ByClass {
		total += n
	}
	if total != s.Jobs {
		t.Errorf("class counts sum to %d, want %d", total, s.Jobs)
	}
	if s.MeanGPUReq < 1 || s.MeanGPUReq > 8 {
		t.Errorf("MeanGPUReq %v out of range", s.MeanGPUReq)
	}
	if s.Makespan <= 0 {
		t.Errorf("Makespan %v", s.Makespan)
	}
}

func TestArrivalRate(t *testing.T) {
	c := Config{MeanInterarrival: 20}
	if got := c.ArrivalRate(); got != 0.05 {
		t.Errorf("ArrivalRate = %v, want 0.05", got)
	}
	if got := (Config{}).ArrivalRate(); got != 0 {
		t.Errorf("zero config ArrivalRate = %v", got)
	}
}

func TestGeneratePropertySubmitTimesOrdered(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		cfg := Config{Seed: seed, NumJobs: int(n)%40 + 1, MeanInterarrival: 15}
		tr, err := Generate(cfg)
		if err != nil {
			return false
		}
		prev := 0.0
		for _, j := range tr.Jobs {
			if j.Submit < prev {
				return false
			}
			prev = j.Submit
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGenerateSteadyMatchesZeroArrivalSpec(t *testing.T) {
	// The zero Arrival spec must reproduce the historical Poisson trace
	// byte-for-byte: same RNG draw order, same submit times and job mix.
	base, err := Generate(Config{Seed: 5, NumJobs: 40, MeanInterarrival: 12})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Generate(Config{Seed: 5, NumJobs: 40, MeanInterarrival: 12,
		Arrival: scenario.ArrivalSpec{Kind: scenario.ArrivalPoisson}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Jobs, explicit.Jobs) {
		t.Error("explicit poisson spec diverged from the zero-value default")
	}
}

func TestGenerateNonStationaryArrivals(t *testing.T) {
	for _, kind := range []scenario.ArrivalKind{scenario.ArrivalDiurnal, scenario.ArrivalBurst, scenario.ArrivalHeavyTail} {
		cfg := Config{Seed: 5, NumJobs: 60, MeanInterarrival: 12,
			Arrival: scenario.ArrivalSpec{Kind: kind}}
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		again, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr.Jobs, again.Jobs) {
			t.Errorf("%s: same seed generated different traces", kind)
		}
		steady, _ := Generate(Config{Seed: 5, NumJobs: 60, MeanInterarrival: 12})
		same := true
		for i := range tr.Jobs {
			if tr.Jobs[i].Submit != steady.Jobs[i].Submit {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: submit times identical to the steady trace", kind)
		}
	}
}

func TestGenerateRejectsBadArrival(t *testing.T) {
	_, err := Generate(Config{Seed: 1, NumJobs: 5, MeanInterarrival: 12,
		Arrival: scenario.ArrivalSpec{Kind: "bogus"}})
	if err == nil {
		t.Error("unknown arrival kind accepted")
	}
}
