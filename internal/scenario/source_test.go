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

func TestDrainMTBFSourceDeterministicAndStateDependent(t *testing.T) {
	spec := CapacitySpec{DrainMTBF: 500, DrainRestock: 300}
	expand := func() []CapacityEvent {
		src := NewDrainMTBFSource(spec, 7)
		view := ClusterView{LiveRacks: []int{0, 1, 2, 3}}
		var all []CapacityEvent
		for {
			wake := src.NextWake(-1)
			if wake < 0 {
				break
			}
			all = append(all, src.Next(wake, view)...)
		}
		return all
	}
	first := expand()
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
			if ev.Rack < 0 || ev.Rack > 3 {
				t.Errorf("drain picked rack %d outside the live set", ev.Rack)
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
	if again := expand(); !reflect.DeepEqual(first, again) {
		t.Error("same (spec, seed) expanded to different event sequences")
	}

	// The pick resolves against racks alive *at apply time*: shrinking the
	// live set changes which rack a late drain hits — exactly what a
	// precomputed timeline cannot express.
	src := NewDrainMTBFSource(spec, 7)
	wake := src.NextWake(-1)
	ev := src.Next(wake, ClusterView{LiveRacks: []int{9}})
	if len(ev) == 0 || ev[0].Rack != 9 {
		t.Errorf("drain against a single live rack hit %+v, want rack 9", ev)
	}
	if out := src.Next(src.NextWake(wake), ClusterView{}); len(out) != 0 && out[0].Kind == CapacityRackDrain {
		t.Errorf("drain with no live racks should be skipped, got %+v", out)
	}
}

func TestDrainMTBFSourceZeroSpec(t *testing.T) {
	src := NewDrainMTBFSource(CapacitySpec{}, 1)
	if src.NextWake(-1) >= 0 {
		t.Error("zero DrainMTBF must yield an exhausted source")
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
	// The drain process is state-dependent and must NOT leak into the
	// precomputed timeline (it runs as a DrainMTBFSource instead).
	if tl := s.Capacity.Timeline(1); len(tl) != 0 {
		t.Errorf("Timeline expanded drain events: %+v", tl)
	}
}
