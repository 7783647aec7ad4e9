package autoscale

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// ErrUnknown is wrapped by Get for unknown policy names; match it with
// errors.Is.
var ErrUnknown = errors.New("autoscale: unknown autoscaler")

// Policy is a named, fully parameterized controller configuration.
type Policy struct {
	// Name is the flag-facing identifier ("reactive-conservative", …).
	Name string
	// Title is a one-line description for listings.
	Title string
	// Interval is the evaluation period in seconds: the controller wakes,
	// observes and (possibly) acts every Interval (0 ⇒ 30).
	Interval float64
	// Analyzer and Decision parameterize the pipeline stages.
	Analyzer AnalyzerConfig
	Decision DecisionConfig
}

// Built-in policy names.
const (
	// ReactiveConservative scales late and in single-server steps: long
	// windows, long cooldowns, no emergency path. The "do no harm"
	// baseline.
	ReactiveConservative = "reactive-conservative"
	// ReactiveAggressive chases demand: short windows, big steps, an
	// emergency bypass, and a 2× growth ceiling.
	ReactiveAggressive = "reactive-aggressive"
	// ReactiveEmergency is the conservative policy plus an emergency
	// scale-up bypass — steady hands until the queue explodes.
	ReactiveEmergency = "reactive-emergency"
)

// builtins are the known policies, in name order. Tunings are calibrated
// to the evaluation workload (interarrival ~12 s, pressure swinging on a
// minutes scale under diurnal/burst arrivals): conservative reacts on
// the order of minutes, aggressive within tens of seconds.
var builtins = []Policy{
	{
		Name:     ReactiveAggressive,
		Title:    "fast multi-server steps with an emergency bypass, 2× growth ceiling",
		Interval: 15,
		Analyzer: AnalyzerConfig{Window: 60, HighWater: 0.75, LowWater: 0.6},
		Decision: DecisionConfig{
			HighDuration:      30,
			LowDuration:       120,
			CooldownUp:        60,
			CooldownDown:      180,
			MaxScaleStep:      4,
			TargetPressure:    0.65,
			EmergencyPressure: 2.0,
			MinServers:        2,
			MaxFactor:         2,
		},
	},
	{
		Name:     ReactiveConservative,
		Title:    "slow single-server steps, long cooldowns, no emergency path",
		Interval: 30,
		Analyzer: AnalyzerConfig{Window: 120, HighWater: 0.85, LowWater: 0.5},
		Decision: DecisionConfig{
			HighDuration:   120,
			LowDuration:    300,
			CooldownUp:     180,
			CooldownDown:   600,
			MaxScaleStep:   1,
			TargetPressure: 0.7,
			MinServers:     2,
			MaxFactor:      1.5,
		},
	},
	{
		Name:     ReactiveEmergency,
		Title:    "conservative tuning plus an emergency scale-up bypass",
		Interval: 30,
		Analyzer: AnalyzerConfig{Window: 120, HighWater: 0.85, LowWater: 0.5},
		Decision: DecisionConfig{
			HighDuration:      120,
			LowDuration:       300,
			CooldownUp:        180,
			CooldownDown:      600,
			MaxScaleStep:      2,
			TargetPressure:    0.7,
			EmergencyPressure: 1.2,
			MinServers:        2,
			MaxFactor:         1.5,
		},
	},
}

// Get returns the named policy or an error listing the known names.
func Get(name string) (Policy, error) {
	for _, p := range builtins {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("%w %q (known: %v)", ErrUnknown, name, Names())
}

// Names returns the known policy names, sorted.
func Names() []string {
	names := make([]string, len(builtins))
	for i, p := range builtins {
		names[i] = p.Name
	}
	return names
}

// Policies returns every known policy sorted by name.
func Policies() []Policy { return append([]Policy(nil), builtins...) }

// ctlObs bundles a controller's instrument handles. An uninstrumented
// controller holds a nil *ctlObs and pays exactly one nil check per
// record — the same contract the internal/obs handles pin.
//
//ones:nilsafe
type ctlObs struct {
	decisions  *obs.CounterVec // by action: scale-up / scale-down / hold
	steps      *obs.CounterVec // servers added/removed, by direction
	clamps     *obs.Counter
	suppressed *obs.Counter
	emergency  *obs.Counter
}

// Controller is the assembled analyzer → decision → scaler pipeline,
// implementing scenario.CapacitySource: the simulator wakes it every
// policy Interval, hands it a ClusterView, and applies whatever events
// it emits. All telemetry is out-of-band — results are byte-identical
// with or without a registry.
type Controller struct {
	policy   Policy
	analyzer *Analyzer
	decider  *Decider
	scaler   *Scaler
	nextEval float64
	oh       *ctlObs
}

// NewController assembles a controller from the policy, seeding the
// scaler's removal picks. reg may be nil for an uninstrumented
// controller; metric registration is idempotent, so controllers for many
// cells share one registry's series.
func NewController(p Policy, seed int64, reg *obs.Registry) *Controller {
	if p.Interval <= 0 {
		p.Interval = 30
	}
	c := &Controller{
		policy:   p,
		analyzer: newAnalyzer(p.Analyzer),
		decider:  newDecider(p.Decision),
		scaler:   newScaler(seed),
		nextEval: p.Interval,
	}
	if reg != nil {
		c.oh = &ctlObs{
			decisions:  reg.CounterVec("autoscale_decisions_total", "Controller evaluations by outcome.", "action"),
			steps:      reg.CounterVec("autoscale_scale_steps_total", "Servers the controller added or removed, by direction.", "dir"),
			clamps:     reg.Counter("autoscale_clamps_total", "Scaling steps cut short by MaxScaleStep or the size envelope."),
			suppressed: reg.Counter("autoscale_cooldown_suppressed_total", "Triggers held back by a cooldown window."),
			emergency:  reg.Counter("autoscale_emergency_total", "Scale-ups that took the emergency bypass."),
		}
	}
	return c
}

// NextWake implements scenario.CapacitySource: the next evaluation
// boundary (the first falls one Interval into the run).
func (c *Controller) NextWake(now float64) float64 { return c.nextEval }

// Next implements scenario.CapacitySource: at an evaluation boundary it
// runs the pipeline on the snapshot and returns the shaped events; when
// polled early (a sibling source's wake in a composed run) it returns
// nil without consuming the boundary.
func (c *Controller) Next(now float64, view scenario.ClusterView) []scenario.CapacityEvent {
	if now < c.nextEval {
		return nil
	}
	for c.nextEval <= now {
		c.nextEval += c.policy.Interval
	}
	sig := c.analyzer.Observe(now, view)
	act := c.decider.Decide(now, view, sig)
	c.oh.record(act)
	return c.scaler.Shape(act, view)
}

// record emits the action's telemetry. Safe on a nil receiver (an
// uninstrumented controller).
func (o *ctlObs) record(act Action) {
	if o == nil {
		return
	}
	switch {
	case act.Delta > 0:
		o.decisions.With("scale-up").Inc()
		o.steps.With("up").Add(uint64(act.Delta))
	case act.Delta < 0:
		o.decisions.With("scale-down").Inc()
		o.steps.With("down").Add(uint64(-act.Delta))
	default:
		o.decisions.With("hold").Inc()
	}
	if act.Clamped {
		o.clamps.Inc()
	}
	if act.Suppressed {
		o.suppressed.Inc()
	}
	if act.Emergency {
		o.emergency.Inc()
	}
}
