package autoscale

import (
	"math"

	"repro/internal/scenario"
)

// DecisionConfig parameterizes the decision stage: when a signal becomes
// an action, and how big the action may be.
type DecisionConfig struct {
	// HighDuration is how long the smoothed pressure must stay at or
	// above the analyzer's HighWater before a scale-up triggers.
	HighDuration float64
	// LowDuration is the sustained-idle requirement for a scale-down;
	// keep it well above HighDuration — adding capacity late costs queue
	// time, removing it early costs evictions.
	LowDuration float64
	// CooldownUp is the minimum time between scale-ups; CooldownDown
	// gates scale-downs (measured from the last action in either
	// direction, so the controller never removes servers it just added).
	CooldownUp   float64
	CooldownDown float64
	// MaxScaleStep clamps how many servers one decision may add or
	// remove (0 ⇒ 1).
	MaxScaleStep int
	// TargetPressure is the pressure the controller sizes the cluster
	// for: desired servers ≈ demand / (TargetPressure × GPUs per server).
	TargetPressure float64
	// EmergencyPressure, when positive, is an instantaneous-pressure
	// threshold that bypasses the sustained-duration and cooldown gates —
	// the "queue exploded, act now" escape hatch. MaxScaleStep still
	// clamps the step.
	EmergencyPressure float64
	// MinServers floors scale-downs; the ceiling is MaxFactor × the
	// cluster's initial server count (0 ⇒ uncapped).
	MinServers int
	MaxFactor  float64
}

// Action is the decision stage's output for one evaluation.
type Action struct {
	// Delta is the server-count change to apply: positive adds servers,
	// negative removes, zero holds.
	Delta int
	// Emergency marks a scale-up that bypassed the sustained and
	// cooldown gates.
	Emergency bool
	// Clamped reports that MaxScaleStep or the size bounds cut the step
	// short of the computed target.
	Clamped bool
	// Suppressed reports a trigger that fired inside its cooldown window
	// and was held (Delta is zero).
	Suppressed bool
}

// Decider turns signals into clamped scaling actions. The zero value is
// not ready — use newDecider (or Controller, which owns one).
type Decider struct {
	cfg      DecisionConfig
	initial  int // server count first observed, anchoring MaxFactor
	lastUp   float64
	lastDown float64
}

func newDecider(cfg DecisionConfig) *Decider {
	return &Decider{cfg: cfg, lastUp: math.Inf(-1), lastDown: math.Inf(-1)}
}

// desired returns the server count that would put the cluster at the
// target pressure under current demand.
func (d *Decider) desired(view scenario.ClusterView) int {
	if view.Servers <= 0 || view.TotalGPUs <= 0 {
		return view.Servers
	}
	target := d.cfg.TargetPressure
	if target <= 0 {
		target = 1
	}
	perServer := float64(view.TotalGPUs) / float64(view.Servers)
	demand := float64(view.BusyGPUs + view.PendingGPUs)
	return int(math.Ceil(demand / (target * perServer)))
}

// clampDelta bounds a raw server delta by MaxScaleStep and the
// [MinServers, MaxFactor×initial] size envelope, reporting whether
// anything was cut.
func (d *Decider) clampDelta(delta int, view scenario.ClusterView) (int, bool) {
	clamped := false
	step := d.cfg.MaxScaleStep
	if step <= 0 {
		step = 1
	}
	if delta > step {
		delta, clamped = step, true
	}
	if delta < -step {
		delta, clamped = -step, true
	}
	if d.cfg.MaxFactor > 0 {
		max := int(math.Ceil(d.cfg.MaxFactor * float64(d.initial)))
		if view.Servers+delta > max {
			delta, clamped = max-view.Servers, true
		}
	}
	min := d.cfg.MinServers
	if min < 1 {
		min = 1
	}
	if view.Servers+delta < min {
		delta, clamped = min-view.Servers, true
	}
	return delta, clamped
}

// Decide evaluates one observation. It mutates cooldown state only when
// an action actually fires, so a suppressed trigger does not reset its
// own clock.
func (d *Decider) Decide(now float64, view scenario.ClusterView, sig Signals) Action {
	if d.initial == 0 {
		d.initial = view.Servers
	}
	// Emergency scale-up: instantaneous pressure past the panic line
	// bypasses both the sustained requirement and the cooldown.
	if d.cfg.EmergencyPressure > 0 && sig.Pressure >= d.cfg.EmergencyPressure {
		delta := d.desired(view) - view.Servers
		if delta < 1 {
			delta = 1
		}
		delta, clamped := d.clampDelta(delta, view)
		if delta > 0 {
			d.lastUp = now
			return Action{Delta: delta, Emergency: true, Clamped: clamped}
		}
	}
	if d.cfg.HighDuration > 0 && sig.HighFor >= d.cfg.HighDuration {
		if now-d.lastUp < d.cfg.CooldownUp {
			return Action{Suppressed: true}
		}
		delta := d.desired(view) - view.Servers
		if delta < 1 {
			// Pressure has been high for the whole duration: demand
			// exceeds comfort even if the sizing formula rounds to "keep".
			delta = 1
		}
		delta, clamped := d.clampDelta(delta, view)
		if delta > 0 {
			d.lastUp = now
			return Action{Delta: delta, Clamped: clamped}
		}
		return Action{Clamped: clamped}
	}
	if d.cfg.LowDuration > 0 && sig.LowFor >= d.cfg.LowDuration {
		since := math.Max(d.lastUp, d.lastDown)
		if now-since < d.cfg.CooldownDown {
			return Action{Suppressed: true}
		}
		delta := d.desired(view) - view.Servers
		if delta > -1 {
			delta = -1
		}
		delta, clamped := d.clampDelta(delta, view)
		if delta < 0 {
			d.lastDown = now
			return Action{Delta: delta, Clamped: clamped}
		}
		return Action{Clamped: clamped}
	}
	return Action{}
}
