package engine

import (
	"context"
	"encoding/json"
	"testing"
)

// TestCellKeyGoldenHomogeneous pins the exact persistent-cache key of a
// defaulted homogeneous cell. This string is the on-disk contract: caches
// written before heterogeneous shapes existed are keyed by it, so any
// drift here silently invalidates every existing cache. Do not update
// the literal without bumping servecache.Version instead.
func TestCellKeyGoldenHomogeneous(t *testing.T) {
	p := DefaultParams()
	got := CellKey(p, Cell{Scheduler: "ones"})
	want := "cell|seed=1|jobs=120|ia=12|maxgpus=8|pop=32|theta=0|events=false|sched=ones|cap=64|per=4|trace=1|scn=steady"
	if got != want {
		t.Fatalf("homogeneous CellKey drifted:\n got  %s\n want %s", got, want)
	}
}

func TestCellKeyShapeIsOrderDistinct(t *testing.T) {
	p := DefaultParams()
	a := CellKey(p, Cell{Scheduler: "ones", Shape: "4x8,2x4"})
	b := CellKey(p, Cell{Scheduler: "ones", Shape: "2x4,4x8"})
	if a == b {
		t.Fatalf("shape orderings share a cache key: %s", a)
	}
	// Both orderings total 40 GPUs; neither may collide with the
	// homogeneous 40-GPU cell either.
	c := CellKey(p, Cell{Scheduler: "ones", Capacity: 40})
	if a == c || b == c {
		t.Fatalf("shaped key collides with homogeneous key %s", c)
	}
}

// TestCellKeySpellingVariantsShareAKey pins shape canonicalization:
// whitespace-padded spellings of one topology normalize to the same
// cell, key and seed, while group order stays distinct (semantic).
func TestCellKeySpellingVariantsShareAKey(t *testing.T) {
	p := DefaultParams()
	canon := CellKey(p, Cell{Scheduler: "ones", Shape: "4x8,2x4"})
	padded := CellKey(p, Cell{Scheduler: "ones", Shape: "4x8, 2x4"})
	if canon != padded {
		t.Fatalf("spelling variants keyed apart:\n %s\n %s", canon, padded)
	}
	a := Cell{Scheduler: "ones", Shape: "4x8,2x4"}.Normalize(p)
	b := Cell{Scheduler: "ones", Shape: " 4x8 , 2x4 "}.Normalize(p)
	if a != b {
		t.Fatalf("normalized cells differ: %+v vs %+v", a, b)
	}
	if a.schedulerSeed(1) != b.schedulerSeed(1) {
		t.Fatal("spelling variants derive different seeds")
	}
}

func TestCellKeyShapeAppendsDimension(t *testing.T) {
	p := DefaultParams()
	got := CellKey(p, Cell{Scheduler: "ones", Shape: "4x8,2x4"})
	want := "cell|seed=1|jobs=120|ia=12|maxgpus=8|pop=32|theta=0|events=false|sched=ones|cap=40|per=0|trace=1|scn=steady|shape=4x8,2x4"
	if got != want {
		t.Fatalf("shaped CellKey:\n got  %s\n want %s", got, want)
	}
}

func TestShapedCellSeedsDifferByOrdering(t *testing.T) {
	a := Cell{Scheduler: "ones", Shape: "4x8,2x4"}.schedulerSeed(1)
	b := Cell{Scheduler: "ones", Shape: "2x4,4x8"}.schedulerSeed(1)
	if a == b {
		t.Fatalf("shape orderings share a scheduler seed %d", a)
	}
}

func TestCellTopologyFromShape(t *testing.T) {
	topo, err := Cell{Scheduler: "ones", Shape: "4x8,2x4"}.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.TotalGPUs() != 40 || topo.NumServers() != 6 {
		t.Fatalf("shape topology = %v", topo)
	}
	if _, err := (Cell{Scheduler: "ones", Shape: "bogus"}).Topology(); err == nil {
		t.Fatal("invalid shape parsed")
	}
}

func TestRunnerRejectsInvalidShape(t *testing.T) {
	r := NewRunner(QuickParams())
	if _, err := r.Result(context.Background(), Cell{Scheduler: "fifo", Shape: "not-a-shape"}); err == nil {
		t.Fatal("invalid shape ran")
	}
}

// TestShapedCellsDeterministicAcrossWorkers pins that mixed-topology
// cells — including a rack drain — are byte-identical at any worker
// count, the same contract the homogeneous suite has.
func TestShapedCellsDeterministicAcrossWorkers(t *testing.T) {
	cells := []Cell{
		{Scheduler: "fifo", Shape: "2x4,1x8", Scenario: "rack-drain"},
		{Scheduler: "tiresias", Shape: "2x4,1x8", Scenario: "rack-drain"},
		{Scheduler: "fifo", Shape: "1x8,2x4", Scenario: "rack-drain"},
	}
	render := func(workers int) string {
		p := QuickParams()
		p.Workers = workers
		results, err := NewRunner(p).Results(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	base := render(1)
	if got := render(4); got != base {
		t.Fatalf("shaped cells differ between workers=1 and workers=4")
	}
	// The two shape orderings must actually disagree: they place the
	// 8-GPU box at opposite ends of the GPU axis and drain different
	// rack contents.
	var results []map[string]any
	if err := json.Unmarshal([]byte(base), &results); err != nil {
		t.Fatal(err)
	}
	if results[0]["Makespan"] == results[2]["Makespan"] &&
		results[0]["RackDrainEvictions"] == results[2]["RackDrainEvictions"] {
		t.Logf("note: shape orderings produced coincidentally equal headline metrics")
	}
}
