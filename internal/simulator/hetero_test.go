package simulator

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
)

// mixedConfig builds a small mixed-fleet config: rack 0 = two 4-GPU
// servers, rack 1 = two 2-GPU servers (12 GPUs).
func mixedConfig(t *testing.T, n int) Config {
	t.Helper()
	topo, err := cluster.ParseShape("2x4,2x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(smallTrace(t, n))
	cfg.Topo = topo
	return cfg
}

func TestMixedFleetCompletesAllJobs(t *testing.T) {
	cfg := mixedConfig(t, 10)
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("truncated with %d unfinished", res.Unfinished)
	}
	if res.TotalGPUs != 12 {
		t.Errorf("TotalGPUs = %d, want 12", res.TotalGPUs)
	}
}

func TestRackDrainEvictsWholeRack(t *testing.T) {
	cfg := mixedConfig(t, 10)
	cfg.RecordEvents = true
	// Drain rack 0 (8 of 12 GPUs) early, while jobs are running, and
	// power it back later.
	cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
		{Time: 40, Kind: scenario.CapacityRackDrain, Rack: 0},
		{Time: 400, Kind: scenario.CapacityJoin, Restocks: scenario.CapacityRackDrain},
	})
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityEvents != 2 {
		t.Errorf("CapacityEvents = %d, want 2 (drain + restock)", res.CapacityEvents)
	}
	if res.Evictions == 0 || res.RackDrainEvictions == 0 {
		t.Errorf("rack drain evicted nothing (evictions=%d rack=%d)", res.Evictions, res.RackDrainEvictions)
	}
	if res.RackDrainEvictions > res.Evictions {
		t.Errorf("RackDrainEvictions %d exceeds Evictions %d", res.RackDrainEvictions, res.Evictions)
	}
	// The capacity event log must show 12 → 4 → 12.
	var caps []int
	for _, ev := range res.Events {
		if ev.Kind == EventCapacity {
			caps = append(caps, ev.GPUs)
		}
	}
	if len(caps) != 2 || caps[0] != 4 || caps[1] != 12 {
		t.Errorf("capacity trajectory = %v, want [4 12]", caps)
	}
	if res.Truncated {
		t.Errorf("run truncated with %d unfinished", res.Unfinished)
	}
}

func TestRackDrainOfAbsentRackIsNoOp(t *testing.T) {
	cfg := mixedConfig(t, 6)
	cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
		{Time: 40, Kind: scenario.CapacityRackDrain, Rack: 9},
	})
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityEvents != 0 || res.Evictions != 0 {
		t.Errorf("absent-rack drain changed the world: events=%d evictions=%d",
			res.CapacityEvents, res.Evictions)
	}
}

func TestRackDrainClampsAtMinServersFloor(t *testing.T) {
	cfg := mixedConfig(t, 6)
	cfg.MinServers = 3
	cfg.RecordEvents = true
	// Rack 0 has servers 0 and 1; the floor allows removing only one.
	cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
		{Time: 40, Kind: scenario.CapacityRackDrain, Rack: 0},
	})
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Events {
		if ev.Kind == EventCapacity && ev.GPUs != 8 {
			t.Errorf("clamped drain left %d GPUs, want 8 (one 4-GPU server removed)", ev.GPUs)
		}
	}
	if res.CapacityEvents != 1 {
		t.Errorf("CapacityEvents = %d, want 1", res.CapacityEvents)
	}
}

func TestRackDrainDuringElasticScaleUp(t *testing.T) {
	cfg := mixedConfig(t, 10)
	cfg.RecordEvents = true
	// A scale-up of two 4-GPU servers lands (in a fresh rack 2) just
	// before rack 1 drains; the drain must hit only rack 1's servers and
	// the restock must return exactly rack 1's two 2-GPU machines.
	cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
		{Time: 30, Kind: scenario.CapacityJoin, Servers: 2, GPUs: 4},
		{Time: 60, Kind: scenario.CapacityRackDrain, Rack: 1},
		{Time: 300, Kind: scenario.CapacityJoin, Restocks: scenario.CapacityRackDrain},
	})
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	var caps []int
	for _, ev := range res.Events {
		if ev.Kind == EventCapacity {
			caps = append(caps, ev.GPUs)
		}
	}
	// 12 → +8 join = 20 → −4 drain = 16 → +4 restock = 20.
	want := []int{20, 16, 20}
	if len(caps) != len(want) {
		t.Fatalf("capacity trajectory = %v, want %v", caps, want)
	}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("capacity trajectory = %v, want %v", caps, want)
		}
	}
	if res.Truncated {
		t.Errorf("run truncated with %d unfinished", res.Unfinished)
	}
}

func TestPlannedJoinWithExplicitGPUs(t *testing.T) {
	cfg := mixedConfig(t, 6)
	cfg.RecordEvents = true
	cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
		{Time: 40, Kind: scenario.CapacityJoin, Servers: 1, GPUs: 16},
	})
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Events {
		if ev.Kind == EventCapacity && ev.GPUs != 28 {
			t.Errorf("join grew to %d GPUs, want 28 (12 + one 16-GPU box)", ev.GPUs)
		}
	}
}

// TestMixedDeterminism pins that a mixed-fleet run with a rack drain is
// reproducible event for event.
func TestMixedDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := mixedConfig(t, 8)
		cfg.RecordEvents = true
		cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
			{Time: 50, Kind: scenario.CapacityRackDrain, Rack: 0},
			{Time: 500, Kind: scenario.CapacityJoin, Restocks: scenario.CapacityRackDrain},
		})
		res, err := Run(cfg, &fifoTest{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || len(a.Events) != len(b.Events) ||
		a.RackDrainEvictions != b.RackDrainEvictions {
		t.Fatalf("mixed-fleet run not deterministic: %v/%d/%d vs %v/%d/%d",
			a.Makespan, len(a.Events), a.RackDrainEvictions,
			b.Makespan, len(b.Events), b.RackDrainEvictions)
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}
