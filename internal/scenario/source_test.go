package scenario

import (
	"reflect"
	"testing"
)

func TestClusterViewSignals(t *testing.T) {
	v := ClusterView{TotalGPUs: 64, BusyGPUs: 48, PendingGPUs: 32}
	if got := v.Pressure(); got != 1.25 {
		t.Errorf("Pressure = %v, want 1.25", got)
	}
	var empty ClusterView
	if empty.Pressure() != 0 {
		t.Error("empty view must report zero signals, not divide by zero")
	}
}

func TestTimelineSourceReplaysTimeline(t *testing.T) {
	events := []CapacityEvent{
		{Time: 10, Kind: CapacityLeave},
		{Time: 10, Kind: CapacityLeave, Pick: 0.5},
		{Time: 30, Kind: CapacityJoin, Servers: 2},
	}
	src := NewTimelineSource(events)
	if got := src.NextWake(-1); got != 10 {
		t.Fatalf("first wake = %v, want 10", got)
	}
	if got := src.Next(5, ClusterView{}); got != nil {
		t.Fatalf("events before their time: %+v", got)
	}
	due := src.Next(10, ClusterView{})
	if len(due) != 2 || due[0] != events[0] || due[1] != events[1] {
		t.Fatalf("Next(10) = %+v, want the two t=10 events in order", due)
	}
	if got := src.NextWake(10); got != 30 {
		t.Fatalf("wake after t=10 batch = %v, want 30", got)
	}
	if due := src.Next(30, ClusterView{}); len(due) != 1 || due[0].Servers != 2 {
		t.Fatalf("Next(30) = %+v", due)
	}
	if got := src.NextWake(30); got >= 0 {
		t.Fatalf("exhausted source wake = %v, want negative", got)
	}
}

func TestSourcesComposition(t *testing.T) {
	if Sources() != nil || Sources(nil, nil) != nil {
		t.Error("no live sources must compose to nil")
	}
	lone := NewTimelineSource(nil)
	if got := Sources(nil, lone); got != CapacitySource(lone) {
		t.Error("single live source must be returned as itself (fast-path identity)")
	}
	a := NewTimelineSource([]CapacityEvent{{Time: 20, Kind: CapacityLeave}})
	b := NewTimelineSource([]CapacityEvent{
		{Time: 10, Kind: CapacityFail},
		{Time: 20, Kind: CapacityJoin, Restocks: CapacityFail},
	})
	m := Sources(a, b)
	if got := m.NextWake(-1); got != 10 {
		t.Fatalf("composed wake = %v, want earliest child wake 10", got)
	}
	if due := m.Next(10, ClusterView{}); len(due) != 1 || due[0].Kind != CapacityFail {
		t.Fatalf("Next(10) = %+v", due)
	}
	// At t=20 both children are due; events arrive in child order.
	due := m.Next(20, ClusterView{})
	want := []CapacityEvent{
		{Time: 20, Kind: CapacityLeave},
		{Time: 20, Kind: CapacityJoin, Restocks: CapacityFail},
	}
	if !reflect.DeepEqual(due, want) {
		t.Fatalf("Next(20) = %+v, want %+v", due, want)
	}
	if got := m.NextWake(20); got >= 0 {
		t.Fatalf("exhausted composed wake = %v", got)
	}
}

// replay drains a source the way the simulator does, collecting every
// event it delivers.
func replay(src CapacitySource) []CapacityEvent {
	var all []CapacityEvent
	for wake := src.NextWake(-1); wake >= 0; wake = src.NextWake(wake) {
		all = append(all, src.Next(wake, ClusterView{})...)
	}
	return all
}

// The DrainMTBF process reaches the simulator as drawn events of the
// capacity timeline, replayed by the TimelineSource the engine builds.
// The draws are fixed by the seeds; which rack a drain empties depends on
// the cluster's state when it applies, so a drawn drain names no rack
// and carries only its Pick (the simulator's TestPickedDrainHitsALiveRack
// checks how a pick resolves against the live racks).
func TestDrainMTBFSourceDeterministicAndStateDependent(t *testing.T) {
	spec := CapacitySpec{DrainMTBF: 500, DrainRestock: 300}
	first := replay(NewTimelineSource(spec.Timeline(1, 7)))
	if len(first) == 0 {
		t.Fatal("no drain events drawn over a horizon of 14 MTBFs")
	}
	var drains, restocks int
	last := -1.0
	for _, ev := range first {
		if ev.Time < last {
			t.Fatalf("events out of order: %+v", first)
		}
		last = ev.Time
		switch ev.Kind {
		case CapacityRackDrain:
			drains++
			if ev.Rack >= 0 || ev.Pick < 0 || ev.Pick >= 1 {
				t.Errorf("drawn drain %+v must name no rack and pick in [0,1)", ev)
			}
		case CapacityJoin:
			restocks++
			if ev.Restocks != CapacityRackDrain || ev.Servers != 0 {
				t.Errorf("restock join malformed: %+v", ev)
			}
		default:
			t.Errorf("unexpected kind %q", ev.Kind)
		}
	}
	if drains == 0 || restocks != drains {
		t.Errorf("drains = %d, restocks = %d; want equal and nonzero", drains, restocks)
	}
	if again := replay(NewTimelineSource(spec.Timeline(1, 7))); !reflect.DeepEqual(first, again) {
		t.Error("same (spec, seeds) expanded to different event sequences")
	}
}

func TestDrainMTBFSourceZeroSpec(t *testing.T) {
	tl := (CapacitySpec{}).Timeline(1, 7)
	if len(tl) != 0 {
		t.Errorf("a zero spec drew %+v", tl)
	}
	if NewTimelineSource(tl).NextWake(-1) >= 0 {
		t.Error("zero DrainMTBF must yield an exhausted source")
	}
}

// The drains come from their own seed: the scenario seed and the other
// processes leave them as they are, and at a tie they follow every other
// event of the instant.
func TestTimelineDrawsMTBFDrains(t *testing.T) {
	spec := CapacitySpec{DrainMTBF: 500, DrainRestock: 300}
	first := spec.Timeline(1, 7)
	if len(first) == 0 {
		t.Fatal("no drain events drawn over a horizon of 14 MTBFs")
	}
	if reflect.DeepEqual(first, spec.Timeline(1, 8)) {
		t.Error("different drain seeds drew identical drains")
	}

	spec.FailMTBF, spec.FailRepair = 300, 900
	spec.Planned = []CapacityEvent{{Time: first[0].Time, Kind: CapacityLeave}}
	var got []CapacityEvent
	tl := spec.Timeline(2, 7)
	for i, ev := range tl {
		if ev.Kind == CapacityRackDrain || ev.Restocks == CapacityRackDrain {
			got = append(got, ev)
		}
		if ev == first[0] && (i == 0 || tl[i-1] != spec.Planned[0]) {
			t.Errorf("the first drain does not follow the planned event of its instant: %+v", tl[:i+1])
		}
	}
	if !reflect.DeepEqual(got, first) {
		t.Errorf("failures and another scenario seed moved the drains:\n%+v\nwant\n%+v", got, first)
	}
}

func TestMTBFDrainScenarioRegistered(t *testing.T) {
	s, err := Get(MTBFDrain)
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity.DrainMTBF != 1200 || s.Capacity.DrainRestock != 900 {
		t.Errorf("mtbf-drain spec = %+v", s.Capacity)
	}
	if s.Capacity.IsStatic() {
		t.Error("a drain process is capacity churn; IsStatic must be false")
	}
	// The drain process is part of the precomputed timeline; its drains
	// name no rack, so the simulator empties a live one as each applies.
	drains := 0
	for _, ev := range s.Capacity.Timeline(1, 1) {
		if ev.Kind == CapacityRackDrain {
			drains++
			if ev.Rack >= 0 {
				t.Errorf("drawn drain names rack %d", ev.Rack)
			}
		}
	}
	if drains == 0 {
		t.Error("mtbf-drain's timeline drew no drains over its horizon")
	}
}
