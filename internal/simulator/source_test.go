package simulator

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
)

// elasticTimeline is a small planned schedule with same-time events,
// which one wake delivers together.
func elasticTimeline() []scenario.CapacityEvent {
	return []scenario.CapacityEvent{
		{Time: 60, Kind: scenario.CapacityLeave, Pick: 0.999},
		{Time: 60, Kind: scenario.CapacityLeave, Pick: 0.5},
		{Time: 300, Kind: scenario.CapacityJoin, Servers: 2},
		{Time: 500, Kind: scenario.CapacityFail, Pick: 0.1},
		{Time: 900, Kind: scenario.CapacityJoin, Servers: 1, Restocks: scenario.CapacityFail},
	}
}

// A lone TimelineSource and the same timeline composed with a second
// (empty) source must yield identical Results: composition changes who
// is polled at each wake, never the physics of the planned events.
func TestSourcePathsEquivalent(t *testing.T) {
	run := func(src scenario.CapacitySource) *Result {
		cfg := smallConfig(t, 10)
		cfg.MinServers = 1
		cfg.Source = src
		res, err := Run(cfg, &fifoTest{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lone := run(scenario.NewTimelineSource(elasticTimeline()))
	composed := run(scenario.Sources(
		scenario.NewTimelineSource(elasticTimeline()),
		scenario.NewTimelineSource(nil),
	))
	if lone.CapacityEvents == 0 || lone.Evictions == 0 {
		t.Fatalf("timeline had no effect (events=%d evictions=%d) — equivalence would be vacuous",
			lone.CapacityEvents, lone.Evictions)
	}
	if !reflect.DeepEqual(lone, composed) {
		t.Errorf("composed source diverged from a lone timeline:\n%+v\nvs\n%+v", composed, lone)
	}
	if composed.ScaleUps != 0 || composed.ScaleDowns != 0 || composed.AutoscaleEvents != 0 {
		t.Errorf("timeline events counted as autoscaler activity: %+v", composed)
	}
}

func TestMTBFDrainTimelineEndToEnd(t *testing.T) {
	spec := scenario.CapacitySpec{DrainMTBF: 150, DrainRestock: 200, MinServers: 1}
	run := func() *Result {
		cfg := mixedConfig(t, 10)
		cfg.MinServers = spec.MinServers
		cfg.Source = scenario.NewTimelineSource(spec.Timeline(0, 11))
		res, err := Run(cfg, &fifoTest{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.CapacityEvents == 0 {
		t.Fatal("stochastic drain process produced no topology changes")
	}
	if res.RackDrainEvictions == 0 {
		t.Error("drains over a busy multi-rack cluster evicted nothing")
	}
	if res.ScaleUps != 0 || res.ScaleDowns != 0 {
		t.Errorf("chaos drains counted as autoscaler activity: %+v", res)
	}
	if again := run(); !reflect.DeepEqual(res, again) {
		t.Error("same (spec, seeds) drain run is not deterministic")
	}
}

// A drain that names no rack empties the live rack its Pick selects,
// counted among the racks still live when it applies: after rack 1 has
// left, Pick 0.6 of the live racks {0, 2} is rack 2, where the same pick
// over every rack id would name the absent rack 1 and change nothing.
func TestPickedDrainHitsALiveRack(t *testing.T) {
	topo, err := cluster.ParseShape("2x8,1x4,1x2") // racks of 16, 4 and 2 GPUs
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(smallTrace(t, 6))
	cfg.Topo = topo
	cfg.RecordEvents = true
	cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
		{Time: 10, Kind: scenario.CapacityRackDrain, Rack: 1},
		{Time: 10, Kind: scenario.CapacityRackDrain, Rack: -1, Pick: 0.6},
		{Time: 20, Kind: scenario.CapacityRackDrain, Rack: -1, Pick: 0.99},
	})
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	var gpus []int
	for _, ev := range res.Events {
		if ev.Kind == EventCapacity {
			gpus = append(gpus, ev.GPUs)
		}
	}
	// 22 GPUs − rack 1 (4) = 18, − rack 2 (2) = 16; then the one live
	// rack, rack 0, drains down to the one-server floor: 8.
	if want := []int{18, 16, 8}; !reflect.DeepEqual(gpus, want) {
		t.Errorf("capacity after each drain = %v, want %v", gpus, want)
	}
}
