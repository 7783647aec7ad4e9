package engine

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Pre-reactive cells must keep the exact cache keys of earlier builds:
// the autoscaler dimension appends only when set.
func TestCellKeyAutoscalerAppendsDimension(t *testing.T) {
	p := DefaultParams()
	plain := CellKey(p, Cell{Scheduler: "ones"})
	if strings.Contains(plain, "|as=") {
		t.Errorf("controller-free key grew an autoscaler dimension: %q", plain)
	}
	reactive := CellKey(p, Cell{Scheduler: "ones", Autoscaler: "reactive-aggressive"})
	if reactive != plain+"|as=reactive-aggressive" {
		t.Errorf("reactive key = %q, want %q + |as=reactive-aggressive", reactive, plain)
	}
	shaped := CellKey(p, Cell{Scheduler: "ones", Shape: "2x4,2x4", Autoscaler: "reactive-conservative"})
	if !strings.HasSuffix(shaped, "|shape=2x4,2x4|as=reactive-conservative") {
		t.Errorf("shape and autoscaler dimensions out of order: %q", shaped)
	}
}

// reactiveCells is the determinism workload: controller-free baselines,
// all three built-in policies, and the stochastic drain scenario, over
// reactive-friendly arrivals on a deliberately tight cluster.
func reactiveCells() []Cell {
	var cells []Cell
	for _, scn := range []string{"diurnal", "burst"} {
		for _, as := range []string{"", "reactive-conservative", "reactive-aggressive", "reactive-emergency"} {
			cells = append(cells, grid(Cell{Scenario: scn, Autoscaler: as}, []string{"ones", "tiresias"}, 16)...)
		}
	}
	// Stochastic rack drains need more than one rack to be interesting.
	cells = append(cells,
		Cell{Scheduler: "ones", Shape: "2x4,2x4", Scenario: "mtbf-drain"},
		Cell{Scheduler: "tiresias", Shape: "2x4,2x4", Scenario: "mtbf-drain", Autoscaler: "reactive-aggressive"},
	)
	return cells
}

// Reactive and drain cells must be byte-identical at any worker count —
// the controller runs inside the single-threaded simulation loop, so
// engine parallelism cannot leak into its observations.
func TestReactiveCellsDeterministicAcrossWorkers(t *testing.T) {
	cells := reactiveCells()
	var golden []byte
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		r := NewRunner(testParams(workers))
		results, err := r.Results(context.Background(), cells)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		raw, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = raw
			continue
		}
		if string(raw) != string(golden) {
			t.Errorf("workers=%d changed reactive Result bytes", workers)
		}
	}
}

// Evolution parallelism is pure throughput for reactive cells too: the
// ONES search fans out inside one Decide call, strictly between two
// controller observations. A lone cell's fan-out is its Workers count.
func TestReactiveEvolutionParallelismByteIdentical(t *testing.T) {
	cell := Cell{Scheduler: "ones", Capacity: 16, Scenario: "burst", Autoscaler: "reactive-aggressive"}
	var golden []byte
	for _, workers := range []int{1, 4} {
		res, err := NewRunner(testParams(workers)).Result(context.Background(), cell)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = raw
			continue
		}
		if string(raw) != string(golden) {
			t.Errorf("workers %d changed the reactive Result bytes", workers)
		}
	}
}

// The acceptance loop: a reactive cell — no pre-planned timeline
// anywhere — must show controller-driven growth AND shrinkage, and the
// controller-free twin none.
func TestReactiveCellProducesScaleActivity(t *testing.T) {
	p := testParams(2)
	p.Interarrival = 8 // overload the 2-server cluster so pressure sustains
	r := NewRunner(p)
	reactive, err := r.Result(context.Background(),
		Cell{Scheduler: "tiresias", Capacity: 8, Scenario: "burst", Autoscaler: "reactive-aggressive"})
	if err != nil {
		t.Fatal(err)
	}
	if reactive.ScaleUps == 0 || reactive.ScaleDowns == 0 {
		t.Errorf("reactive run: ScaleUps=%d ScaleDowns=%d, want both nonzero (makespan %.0f, events %d)",
			reactive.ScaleUps, reactive.ScaleDowns, reactive.Makespan, reactive.CapacityEvents)
	}
	if reactive.AutoscaleEvents != reactive.ScaleUps+reactive.ScaleDowns {
		t.Errorf("AutoscaleEvents %d != %d + %d", reactive.AutoscaleEvents, reactive.ScaleUps, reactive.ScaleDowns)
	}
	baseline, err := r.Result(context.Background(),
		Cell{Scheduler: "tiresias", Capacity: 8, Scenario: "burst"})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.AutoscaleEvents != 0 || baseline.ScaleUps != 0 || baseline.ScaleDowns != 0 {
		t.Errorf("controller-free baseline reports autoscaler activity: %+v", baseline)
	}
	if reflect.DeepEqual(baseline.Jobs, reactive.Jobs) {
		t.Error("controller had no effect on per-job outcomes")
	}
}

// mtbf-drain through the engine: the stochastic rack-failure process
// actually drains racks, deterministically, and pairs across schedulers
// (same drainSeed ⇒ same drain times).
func TestMTBFDrainCellThroughEngine(t *testing.T) {
	p := testParams(2)
	// Stretch the run well past the scenario's ~1200 s mean time between
	// drains, so the process actually fires inside the makespan.
	p.Jobs = 40
	r := NewRunner(p)
	res, err := r.Result(context.Background(), Cell{Scheduler: "tiresias", Shape: "2x4,2x4", Scenario: "mtbf-drain"})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityEvents == 0 {
		t.Error("mtbf-drain produced no topology changes")
	}
	if res.ScaleUps != 0 || res.ScaleDowns != 0 {
		t.Errorf("chaos drains counted as autoscaler activity: %+v", res)
	}
	again, err := NewRunner(p).Result(context.Background(), Cell{Scheduler: "tiresias", Shape: "2x4,2x4", Scenario: "mtbf-drain"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("mtbf-drain cell is not deterministic across fresh runners")
	}
}

// An unknown autoscaler surfaces as autoscale.ErrUnknown from the cell
// run, like unknown schedulers and scenarios do.
func TestRunnerUnknownAutoscaler(t *testing.T) {
	r := NewRunner(testParams(1))
	_, err := r.Result(context.Background(), Cell{Scheduler: "ones", Capacity: 16, Autoscaler: "bogus"})
	if err == nil || !strings.Contains(err.Error(), "unknown autoscaler") {
		t.Fatalf("err = %v, want unknown-autoscaler", err)
	}
}
