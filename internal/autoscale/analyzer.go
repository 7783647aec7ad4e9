// Package autoscale is the closed-loop capacity controller: a reactive
// autoscaler that watches the simulated cluster through the
// scenario.ClusterView the simulator exposes at decision boundaries and
// emits capacity events in response — servers joining under sustained
// pressure, leaving when the cluster idles. It is the endogenous
// counterpart of scenario's pre-planned timelines and seeded chaos
// processes, and plugs into the same scenario.CapacitySource interface,
// so the simulator cannot tell a feedback controller from a schedule
// written in advance.
//
// The controller is three composable stages, mirroring production
// autoscaler architecture:
//
//	analyzer → decision → scaler
//
// The Analyzer turns raw snapshots into windowed signals (smoothed
// pressure, sustained high/low durations); the Decider turns signals
// into a clamped, cooldown-gated scaling action; the Scaler shapes the
// action into concrete capacity events. Every stage is deterministic
// given (policy, seed, observation sequence), so reactive runs are
// byte-identical at any engine worker count or evolution parallelism.
package autoscale

import "repro/internal/scenario"

// AnalyzerConfig parameterizes signal extraction.
type AnalyzerConfig struct {
	// Window is the smoothing horizon in seconds: an observation dt
	// seconds after the last moves the smoothed pressure dt/Window of the
	// way to the instantaneous value (capped at 1 — a gap longer than the
	// window adopts the new value outright). Larger windows ignore
	// shorter spikes.
	Window float64
	// HighWater is the smoothed-pressure threshold above which the
	// cluster counts as overloaded; time spent above it accumulates in
	// Signals.HighFor.
	HighWater float64
	// LowWater is the idle threshold; smoothed pressure below it
	// accumulates Signals.LowFor. Keep LowWater well under HighWater or
	// the controller will flap.
	LowWater float64
}

// Signals is the analyzer's digest of the cluster state at one
// observation.
type Signals struct {
	// Pressure is the instantaneous (busy + pending demand) / capacity
	// ratio from the snapshot (see scenario.ClusterView.Pressure).
	Pressure float64
	// Smoothed is the windowed pressure the thresholds compare against.
	Smoothed float64
	// HighFor is how long, in seconds, the smoothed pressure has been
	// continuously at or above HighWater (0 when below).
	HighFor float64
	// LowFor is how long the smoothed pressure has been continuously at
	// or below LowWater (0 when above).
	LowFor float64
}

// Analyzer accumulates windowed signals over a sequence of cluster
// snapshots. Observations must arrive in nondecreasing time order; the
// zero value is not ready — use newAnalyzer (or Controller, which owns
// one).
type Analyzer struct {
	cfg       AnalyzerConfig
	last      float64 // time of the previous observation
	seen      bool
	smoothed  float64
	highSince float64 // when the current ≥HighWater stretch began (-1 ⇒ not in one)
	lowSince  float64
}

func newAnalyzer(cfg AnalyzerConfig) *Analyzer {
	return &Analyzer{cfg: cfg, highSince: -1, lowSince: -1}
}

// Observe folds one snapshot into the analyzer and returns the updated
// signals.
func (a *Analyzer) Observe(now float64, view scenario.ClusterView) Signals {
	p := view.Pressure()
	if !a.seen {
		a.seen = true
		a.smoothed = p
	} else {
		frac := 1.0
		if dt := now - a.last; a.cfg.Window > 0 && dt < a.cfg.Window {
			frac = dt / a.cfg.Window
		}
		a.smoothed += (p - a.smoothed) * frac
	}
	a.last = now
	if a.smoothed >= a.cfg.HighWater {
		if a.highSince < 0 {
			a.highSince = now
		}
	} else {
		a.highSince = -1
	}
	if a.smoothed <= a.cfg.LowWater {
		if a.lowSince < 0 {
			a.lowSince = now
		}
	} else {
		a.lowSince = -1
	}
	sig := Signals{Pressure: p, Smoothed: a.smoothed}
	if a.highSince >= 0 {
		sig.HighFor = now - a.highSince
	}
	if a.lowSince >= 0 {
		sig.LowFor = now - a.lowSince
	}
	return sig
}
