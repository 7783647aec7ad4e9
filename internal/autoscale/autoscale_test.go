package autoscale

import (
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// viewAt builds a snapshot with the given pressure on a 4-server,
// 16-GPU cluster: pressure = (busy+pending)/16.
func viewAt(now, pressure float64) scenario.ClusterView {
	load := int(pressure * 16)
	busy := load
	pending := 0
	if busy > 16 {
		busy, pending = 16, load-16
	}
	return scenario.ClusterView{
		Now: now, Servers: 4, TotalGPUs: 16,
		BusyGPUs: busy, PendingGPUs: pending,
		LiveRacks: []int{0, 1},
	}
}

func TestAnalyzerSustainedHighTrigger(t *testing.T) {
	a := newAnalyzer(AnalyzerConfig{Window: 60, HighWater: 0.8, LowWater: 0.3})
	// First observation adopts the instantaneous pressure outright.
	sig := a.Observe(0, viewAt(0, 1.0))
	if sig.Smoothed != 1.0 {
		t.Fatalf("first smoothed = %v, want 1.0", sig.Smoothed)
	}
	if sig.HighFor != 0 {
		t.Fatalf("HighFor starts at %v, want 0 (stretch just began)", sig.HighFor)
	}
	// Sustained pressure accumulates HighFor at observation cadence.
	for now := 30.0; now <= 150; now += 30 {
		sig = a.Observe(now, viewAt(now, 1.0))
	}
	if sig.HighFor != 150 {
		t.Errorf("HighFor after 150 s high = %v", sig.HighFor)
	}
	if sig.LowFor != 0 {
		t.Errorf("LowFor = %v during a high stretch", sig.LowFor)
	}
	// One low observation does not instantly reset the smoothed signal
	// below the threshold (windowing), but sustained idle does, and the
	// high stretch ends the moment smoothing crosses down.
	sig = a.Observe(180, viewAt(180, 0.0))
	if sig.Smoothed >= 0.8 {
		t.Fatalf("smoothed = %v after a zero observation over a half-window gap", sig.Smoothed)
	}
	if sig.HighFor != 0 {
		t.Errorf("HighFor = %v after dropping below HighWater", sig.HighFor)
	}
	for now := 210.0; now <= 400; now += 30 {
		sig = a.Observe(now, viewAt(now, 0.0))
	}
	if sig.LowFor == 0 {
		t.Error("sustained idle never accumulated LowFor")
	}
}

func TestAnalyzerSpikeRejection(t *testing.T) {
	a := newAnalyzer(AnalyzerConfig{Window: 300, HighWater: 0.8, LowWater: 0.3})
	a.Observe(0, viewAt(0, 0.5))
	// A single 10-second spike to 2.0 moves the smoothed signal only
	// 10/300 of the way — nowhere near the high water mark.
	sig := a.Observe(10, viewAt(10, 2.0))
	if sig.Smoothed >= 0.8 {
		t.Errorf("smoothed = %v, a short spike should not trip a 300 s window", sig.Smoothed)
	}
	if sig.HighFor != 0 {
		t.Errorf("HighFor = %v on a rejected spike", sig.HighFor)
	}
}

func TestDeciderSustainedAndCooldown(t *testing.T) {
	d := newDecider(DecisionConfig{
		HighDuration: 60, LowDuration: 120,
		CooldownUp: 200, CooldownDown: 400,
		MaxScaleStep: 2, TargetPressure: 0.7, MinServers: 2, MaxFactor: 2,
	})
	high := Signals{Pressure: 1.5, Smoothed: 1.5, HighFor: 90}
	// Sustained high fires; the 1.5-pressure target wants well over
	// +2 servers, so the step clamps at MaxScaleStep.
	act := d.Decide(100, viewAt(100, 1.5), high)
	if act.Delta != 2 || !act.Clamped || act.Reason != ReasonSustainedHigh {
		t.Fatalf("sustained high: %+v, want clamped +2", act)
	}
	// Inside the cooldown the same trigger is suppressed, and the
	// suppression must not reset the cooldown clock.
	act = d.Decide(160, viewAt(160, 1.5), high)
	if act.Delta != 0 || !act.Suppressed {
		t.Fatalf("inside cooldown: %+v, want suppressed hold", act)
	}
	act = d.Decide(301, viewAt(301, 1.5), high)
	if act.Delta != 2 {
		t.Fatalf("after cooldown: %+v, want +2", act)
	}
	// Sustained low immediately after a scale-up is gated by
	// CooldownDown measured from the *last action in either direction*.
	low := Signals{Pressure: 0.1, Smoothed: 0.1, LowFor: 200}
	act = d.Decide(400, viewAt(400, 0.1), low)
	if act.Delta != 0 || !act.Suppressed || act.Reason != ReasonSustainedLow {
		t.Fatalf("scale-down inside post-up cooldown: %+v", act)
	}
	act = d.Decide(800, viewAt(800, 0.1), low)
	if act.Delta >= 0 || act.Reason != ReasonSustainedLow {
		t.Fatalf("after cooldown: %+v, want a removal", act)
	}
}

func TestDeciderSizeEnvelope(t *testing.T) {
	d := newDecider(DecisionConfig{
		HighDuration: 1, LowDuration: 1,
		MaxScaleStep: 100, TargetPressure: 0.7, MinServers: 3, MaxFactor: 1.25,
	})
	// MaxFactor 1.25 over 4 initial servers caps the fleet at 5: a
	// demand worth 10 servers still only adds 1.
	act := d.Decide(10, viewAt(10, 3.0), Signals{Pressure: 3, Smoothed: 3, HighFor: 5})
	if act.Delta != 1 || !act.Clamped {
		t.Fatalf("ceiling: %+v, want clamped +1", act)
	}
	// MinServers 3 floors removals from 4 servers at -1.
	act = d.Decide(500, viewAt(500, 0.0), Signals{LowFor: 5})
	if act.Delta != -1 || !act.Clamped {
		t.Fatalf("floor: %+v, want clamped -1", act)
	}
}

func TestDeciderEmergencyBypass(t *testing.T) {
	d := newDecider(DecisionConfig{
		HighDuration: 600, CooldownUp: 600,
		MaxScaleStep: 4, TargetPressure: 0.7, EmergencyPressure: 1.5, MaxFactor: 4,
	})
	// No sustained history, and a fresh scale-up at t=10 — the
	// emergency still fires at t=20 through both gates.
	act := d.Decide(10, viewAt(10, 2.0), Signals{Pressure: 2.0, HighFor: 0})
	if act.Delta <= 0 || !act.Emergency || act.Reason != ReasonEmergency {
		t.Fatalf("emergency: %+v", act)
	}
	act = d.Decide(20, viewAt(20, 2.0), Signals{Pressure: 2.0, HighFor: 0})
	if act.Delta <= 0 || !act.Emergency {
		t.Fatalf("emergency inside cooldown: %+v, want bypass", act)
	}
	// Below the panic line nothing fires without sustained history.
	act = d.Decide(30, viewAt(30, 1.2), Signals{Pressure: 1.2, HighFor: 0})
	if act.Delta != 0 {
		t.Fatalf("sub-emergency pressure: %+v", act)
	}
}

func TestScalerShapesEvents(t *testing.T) {
	s := newScaler(1, false)
	up := s.Shape(Action{Delta: 3}, viewAt(0, 1))
	if len(up) != 1 || up[0].Kind != scenario.CapacityJoin || up[0].Servers != 3 || up[0].Origin != scenario.OriginAutoscaler {
		t.Fatalf("scale-up shaped as %+v", up)
	}
	down := s.Shape(Action{Delta: -2}, viewAt(0, 0))
	if len(down) != 1 || down[0].Kind != scenario.CapacityLeave || down[0].Servers != 2 || down[0].Origin != scenario.OriginAutoscaler {
		t.Fatalf("scale-down shaped as %+v", down)
	}
	if down[0].Pick < 0 || down[0].Pick >= 1 {
		t.Errorf("Pick = %v outside [0,1)", down[0].Pick)
	}
	if hold := s.Shape(Action{}, viewAt(0, 0.5)); hold != nil {
		t.Errorf("hold shaped events: %+v", hold)
	}
	// Identical seeds draw identical picks.
	a, b := newScaler(7, false), newScaler(7, false)
	pa := a.Shape(Action{Delta: -1}, viewAt(0, 0))[0].Pick
	pb := b.Shape(Action{Delta: -1}, viewAt(0, 0))[0].Pick
	if pa != pb {
		t.Errorf("same-seed picks differ: %v vs %v", pa, pb)
	}
}

func TestScalerWholeRackDrain(t *testing.T) {
	s := newScaler(1, true)
	// 4 servers over 2 racks → 2 per rack; a -2 step covers a rack.
	evs := s.Shape(Action{Delta: -2}, viewAt(0, 0))
	if len(evs) != 1 || evs[0].Kind != scenario.CapacityRackDrain {
		t.Fatalf("rack-capable scale-down shaped as %+v", evs)
	}
	if evs[0].Rack != 0 && evs[0].Rack != 1 {
		t.Errorf("drained rack %d not in the live set", evs[0].Rack)
	}
	// A -1 step does not cover a rack and falls back to a server leave.
	if evs := s.Shape(Action{Delta: -1}, viewAt(0, 0)); evs[0].Kind != scenario.CapacityLeave {
		t.Errorf("sub-rack scale-down shaped as %+v", evs)
	}
}

func TestRegistryBuiltinsAndErrors(t *testing.T) {
	for _, name := range []string{ReactiveConservative, ReactiveAggressive, ReactiveEmergency} {
		p, err := Get(name)
		if err != nil {
			t.Fatalf("built-in %q missing: %v", name, err)
		}
		if p.Interval <= 0 || p.Decision.TargetPressure <= 0 {
			t.Errorf("built-in %q under-specified: %+v", name, p)
		}
	}
	if _, err := Get("bogus"); !errors.Is(err, ErrUnknown) {
		t.Errorf("Get(bogus) = %v, want ErrUnknown", err)
	}
	names := Names()
	if len(names) < 3 {
		t.Errorf("Names() = %v", names)
	}
	if got := Policies(); len(got) != len(names) {
		t.Errorf("Policies() returned %d entries for %d names", len(got), len(names))
	}
}

// TestBuiltinNames: the table's names are the flag-facing keys, so each
// is non-empty and the table is written in strictly increasing name
// order, which makes them unique (Names and Policies return it as is).
func TestBuiltinNames(t *testing.T) {
	for i, p := range builtins {
		if p.Name == "" {
			t.Errorf("builtins[%d] has no name", i)
		}
		if i > 0 && builtins[i-1].Name >= p.Name {
			t.Errorf("builtins[%d] %q does not sort after %q", i, p.Name, builtins[i-1].Name)
		}
	}
}

func TestControllerIsACapacitySource(t *testing.T) {
	var _ scenario.CapacitySource = (*Controller)(nil)
	reg := obs.NewRegistry()
	c := NewController(mustGet(t, ReactiveAggressive), 42, reg)
	if w := c.NextWake(-1); w != 15 {
		t.Fatalf("first wake = %v, want the 15 s interval", w)
	}
	// Polled before its boundary (a sibling source's wake), the
	// controller holds and does not consume the evaluation.
	if evs := c.Next(10, viewAt(10, 3.0)); evs != nil {
		t.Fatalf("early poll emitted %+v", evs)
	}
	if w := c.NextWake(10); w != 15 {
		t.Fatalf("wake after early poll = %v", w)
	}
	// At the boundary, pressure 3.0 ≥ the 2.0 emergency line scales up
	// immediately.
	evs := c.Next(15, viewAt(15, 3.0))
	if len(evs) != 1 || evs[0].Kind != scenario.CapacityJoin || evs[0].Origin != scenario.OriginAutoscaler {
		t.Fatalf("emergency boundary emitted %+v", evs)
	}
	if w := c.NextWake(15); w != 30 {
		t.Fatalf("wake advanced to %v, want 30", w)
	}
	if reg.CounterValue("autoscale_decisions_total", "scale-up") != 1 {
		t.Error("scale-up decision not counted")
	}
	if reg.CounterValue("autoscale_emergency_total") != 1 {
		t.Error("emergency bypass not counted")
	}
	// Uninstrumented controllers (nil registry) must be no-op safe.
	bare := NewController(mustGet(t, ReactiveConservative), 1, nil)
	bare.Next(30, viewAt(30, 1.0))
}

func mustGet(t *testing.T, name string) Policy {
	t.Helper()
	p, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
