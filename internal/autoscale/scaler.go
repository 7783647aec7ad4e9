package autoscale

import (
	"math/rand"

	"repro/internal/scenario"
)

// Scaler shapes a decision into concrete capacity events. It owns the
// controller's only randomness — which server a scale-down hits — drawn
// from a seeded generator, so the whole pipeline stays deterministic.
type Scaler struct {
	rng *rand.Rand
}

func newScaler(seed int64) *Scaler {
	return &Scaler{rng: rand.New(rand.NewSource(seed))}
}

// Shape renders the action as capacity events, all stamped with
// scenario.OriginAutoscaler. A zero-delta action shapes to nothing.
func (s *Scaler) Shape(a Action, view scenario.ClusterView) []scenario.CapacityEvent {
	switch {
	case a.Delta > 0:
		// Join at the cluster's prevailing shape (GPUs 0 ⇒ match the
		// first server) — an autoscaler provisions more of what it has.
		return []scenario.CapacityEvent{{
			Time:    view.Now,
			Kind:    scenario.CapacityJoin,
			Servers: a.Delta,
			Origin:  scenario.OriginAutoscaler,
		}}
	case a.Delta < 0:
		return []scenario.CapacityEvent{{
			Time:    view.Now,
			Kind:    scenario.CapacityLeave,
			Servers: -a.Delta,
			Pick:    s.rng.Float64(),
			Origin:  scenario.OriginAutoscaler,
		}}
	default:
		return nil
	}
}
