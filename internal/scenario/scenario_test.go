package scenario

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestArrivalDefaultsToPoisson(t *testing.T) {
	a := ArrivalSpec{}.Normalize(12)
	if a.Kind != ArrivalPoisson || a.Mean != 12 {
		t.Fatalf("zero spec normalized to %+v, want poisson mean 12", a)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestArrivalValidateRejectsBadSpecs(t *testing.T) {
	if err := (ArrivalSpec{Kind: ArrivalPoisson}).Validate(); err == nil {
		t.Error("zero mean accepted")
	}
	if err := (ArrivalSpec{Kind: "bogus", Mean: 1}).Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestArrivalTimesDeterministicAndOrdered(t *testing.T) {
	for _, kind := range []ArrivalKind{ArrivalPoisson, ArrivalDiurnal, ArrivalBurst, ArrivalHeavyTail} {
		a := ArrivalSpec{Kind: kind}.Normalize(10)
		t1 := a.Times(rand.New(rand.NewSource(3)), 200)
		t2 := a.Times(rand.New(rand.NewSource(3)), 200)
		if !reflect.DeepEqual(t1, t2) {
			t.Errorf("%s: same seed drew different times", kind)
		}
		if !sort.Float64sAreSorted(t1) {
			t.Errorf("%s: times not increasing", kind)
		}
		if t1[0] <= 0 {
			t.Errorf("%s: first arrival %v not positive", kind, t1[0])
		}
	}
}

func TestArrivalMeansRoughlyMatch(t *testing.T) {
	// Every process is tuned to a ~10 s mean interarrival; over many
	// draws the empirical mean should land in the right ballpark.
	// (Heavy-tail converges slowly, hence the loose band.)
	for _, kind := range []ArrivalKind{ArrivalPoisson, ArrivalDiurnal, ArrivalHeavyTail} {
		a := ArrivalSpec{Kind: kind}.Normalize(10)
		times := a.Times(rand.New(rand.NewSource(11)), 5000)
		mean := times[len(times)-1] / float64(len(times))
		if mean < 4 || mean > 25 {
			t.Errorf("%s: empirical mean interarrival %.2f, want ≈10", kind, mean)
		}
	}
}

func TestBurstRateProfile(t *testing.T) {
	a := ArrivalSpec{Kind: ArrivalBurst, BurstEvery: 100, BurstLen: 10, BurstFactor: 4}.Normalize(10)
	if got := a.Rate(5); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("in-burst rate %v, want 0.4", got)
	}
	if got := a.Rate(50); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("baseline rate %v, want 0.1", got)
	}
}

func TestDiurnalRateOscillatesAndStaysPositive(t *testing.T) {
	a := ArrivalSpec{Kind: ArrivalDiurnal, Period: 100, Amplitude: 0.9}.Normalize(10)
	lo, hi := math.Inf(1), math.Inf(-1)
	for x := 0.0; x < 200; x++ {
		r := a.Rate(x)
		if r <= 0 {
			t.Fatalf("rate at t=%v is %v", x, r)
		}
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	if hi/lo < 2 {
		t.Errorf("diurnal modulation too flat: [%v, %v]", lo, hi)
	}
}

func TestTimelineDeterministicAndSorted(t *testing.T) {
	spec := CapacitySpec{FailMTBF: 300, FailRepair: 900, PreemptMTBF: 500, PreemptRestock: 400}
	a := spec.Timeline(42, 0)
	b := spec.Timeline(42, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed built different timelines")
	}
	if len(a) == 0 {
		t.Fatal("MTBF 300 over a 7200 s horizon drew no events")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Time < a[i-1].Time {
			t.Fatalf("timeline out of order at %d: %+v", i, a)
		}
	}
	if reflect.DeepEqual(a, spec.Timeline(43, 0)) {
		t.Error("different seeds built identical timelines")
	}
}

func TestTimelinePairsFailuresWithRepairs(t *testing.T) {
	spec := CapacitySpec{FailMTBF: 200, FailRepair: 500}
	events := spec.Timeline(7, 0)
	fails, joins := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case CapacityFail:
			fails++
			if ev.Pick < 0 || ev.Pick >= 1 {
				t.Errorf("fail Pick %v outside [0,1)", ev.Pick)
			}
		case CapacityJoin:
			joins++
			if ev.Restocks != CapacityFail {
				t.Errorf("repair join not marked as restocking a failure: %+v", ev)
			}
		}
	}
	if fails == 0 || fails != joins {
		t.Errorf("fails %d, repair joins %d — every failure should schedule a repair", fails, joins)
	}
}

func TestTimelineRespectsHorizon(t *testing.T) {
	spec := CapacitySpec{FailMTBF: 50, Horizon: 1000}
	for _, ev := range spec.Timeline(1, 0) {
		if ev.Kind == CapacityFail && ev.Time > 1000 {
			t.Fatalf("failure at %v past horizon 1000", ev.Time)
		}
	}
	// The caller's cap (e.g. the simulator MaxTime) tightens it further.
	for _, ev := range spec.Timeline(1, 200) {
		if ev.Kind == CapacityFail && ev.Time > 200 {
			t.Fatalf("failure at %v past cap 200", ev.Time)
		}
	}
}

func TestTimelineKeepsPlannedEvents(t *testing.T) {
	spec := CapacitySpec{Planned: []CapacityEvent{
		{Time: 100, Kind: CapacityLeave, Servers: 2, Pick: 0.9},
		{Time: 300, Kind: CapacityJoin, Servers: 2},
	}}
	got := spec.Timeline(1, 0)
	if !reflect.DeepEqual(got, spec.Planned) {
		t.Errorf("static planned spec expanded to %+v", got)
	}
	if spec.IsStatic() {
		t.Error("spec with planned events reported static")
	}
	if !(CapacitySpec{}).IsStatic() {
		t.Error("zero spec not static")
	}
}

func TestRegistryBuiltins(t *testing.T) {
	for _, name := range []string{Steady, Diurnal, Burst, HeavyTail, Elastic, Spot, NodeFailure} {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("built-in %q missing", name)
		}
		if s.Title == "" {
			t.Errorf("%q untitled", name)
		}
		if err := s.Arrival.Normalize(12).Validate(); err != nil {
			t.Errorf("%q arrival: %v", name, err)
		}
	}
	steady, _ := Lookup(Steady)
	if !steady.Capacity.IsStatic() || steady.Arrival != (ArrivalSpec{}) {
		t.Error("steady scenario must be the zero world")
	}
	if _, err := Get("bogus"); err == nil {
		t.Error("unknown scenario accepted")
	}
	names := Names()
	if !sort.StringsAreSorted(names) || len(names) < 7 {
		t.Errorf("Names() = %v", names)
	}
	if got := Specs(); len(got) != len(names) {
		t.Errorf("Specs() returned %d specs for %d names", len(got), len(names))
	}
}

// TestBuiltinNames: the table's names are the flag-facing keys, so each
// is non-empty, unique and free of the "+" Get reserves for composition,
// and the table is written in strictly increasing name order (Names and
// Specs return it as is).
func TestBuiltinNames(t *testing.T) {
	for i, s := range builtins {
		if s.Name == "" || strings.Contains(s.Name, "+") {
			t.Errorf("builtins[%d] has name %q", i, s.Name)
		}
		if i > 0 && builtins[i-1].Name >= s.Name {
			t.Errorf("builtins[%d] %q does not sort after %q", i, s.Name, builtins[i-1].Name)
		}
	}
}
