// Package scenario describes how the world changes during a simulated
// run: the arrival process shaping a workload trace (steady Poisson,
// diurnal sinusoid, bursts, heavy-tail interarrival) and the capacity
// timeline mutating the cluster underneath it (elastic scale-up/down,
// maintenance drains, spot preemptions, node failures with repair).
//
// Everything is deterministic: arrival draws consume a caller-provided
// RNG in a fixed order, and capacity timelines are precomputed from a
// seed before the simulation starts, so a scenario cell produces
// byte-identical results at any worker count. Named Specs live in one
// table (see scenario.go) so experiments and tools compose scenarios by
// name instead of hardcoding a fixed cluster.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
)

// ArrivalKind selects the arrival process family.
type ArrivalKind string

// Arrival process kinds.
const (
	// ArrivalPoisson is the stationary Poisson process of the paper's
	// evaluation (exponential interarrival at a fixed rate).
	ArrivalPoisson ArrivalKind = "poisson"
	// ArrivalDiurnal modulates the Poisson rate with a sinusoid —
	// compressed day/night load.
	ArrivalDiurnal ArrivalKind = "diurnal"
	// ArrivalBurst multiplies the Poisson rate inside periodic burst
	// windows — flash crowds over a quiet baseline.
	ArrivalBurst ArrivalKind = "burst"
	// ArrivalHeavyTail draws Pareto interarrival times — long quiet
	// stretches punctuated by clustered submissions.
	ArrivalHeavyTail ArrivalKind = "heavy-tail"
)

// ArrivalSpec parameterizes an arrival process. The zero value means
// "stationary Poisson at the trace's configured mean interarrival".
// Two scenarios sharing an arrival spec replay the identical trace,
// preserving paired comparisons.
type ArrivalSpec struct {
	Kind ArrivalKind `json:"kind,omitempty"`
	// Mean is the base mean interarrival time in seconds (1/λ0).
	// Zero ⇒ the trace config's MeanInterarrival.
	Mean float64 `json:"mean,omitempty"`

	// Period and Amplitude shape the diurnal sinusoid:
	// λ(t) = λ0·(1 + Amplitude·sin(2πt/Period)).
	Period    float64 `json:"period,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`

	// A burst window of BurstLen seconds opens every BurstEvery seconds,
	// multiplying the rate by BurstFactor inside it.
	BurstEvery  float64 `json:"burst_every,omitempty"`
	BurstLen    float64 `json:"burst_len,omitempty"`
	BurstFactor float64 `json:"burst_factor,omitempty"`

	// Alpha is the Pareto shape for heavy-tail interarrivals (>1 so the
	// mean exists; smaller ⇒ heavier tail).
	Alpha float64 `json:"alpha,omitempty"`
}

// Normalize fills defaults against the given fallback mean interarrival
// and returns the completed spec.
func (a ArrivalSpec) Normalize(fallbackMean float64) ArrivalSpec {
	if a.Kind == "" {
		a.Kind = ArrivalPoisson
	}
	if a.Mean <= 0 {
		a.Mean = fallbackMean
	}
	switch a.Kind {
	case ArrivalDiurnal:
		if a.Period <= 0 {
			a.Period = 600
		}
		if a.Amplitude <= 0 {
			a.Amplitude = 0.8
		}
		if a.Amplitude > 0.95 {
			a.Amplitude = 0.95 // keep λ(t) bounded away from zero
		}
	case ArrivalBurst:
		if a.BurstEvery <= 0 {
			a.BurstEvery = 400
		}
		if a.BurstLen <= 0 || a.BurstLen > a.BurstEvery {
			a.BurstLen = a.BurstEvery / 8
		}
		if a.BurstFactor < 1 {
			a.BurstFactor = 5
		}
	case ArrivalHeavyTail:
		if a.Alpha <= 1.05 {
			a.Alpha = 1.5
		}
	}
	return a
}

// Validate reports whether the (normalized) spec is usable.
func (a ArrivalSpec) Validate() error {
	if a.Mean <= 0 {
		return fmt.Errorf("scenario: arrival mean interarrival %v", a.Mean)
	}
	switch a.Kind {
	case ArrivalPoisson, ArrivalDiurnal, ArrivalBurst, ArrivalHeavyTail:
		return nil
	default:
		return fmt.Errorf("scenario: unknown arrival kind %q", a.Kind)
	}
}

// Rate returns the instantaneous arrival rate λ(t) in jobs/second.
// (Heavy-tail is a renewal process, not rate-modulated; its Rate is the
// base rate, used only for reporting.)
func (a ArrivalSpec) Rate(t float64) float64 {
	base := 1 / a.Mean
	switch a.Kind {
	case ArrivalDiurnal:
		return base * (1 + a.Amplitude*math.Sin(2*math.Pi*t/a.Period))
	case ArrivalBurst:
		if math.Mod(t, a.BurstEvery) < a.BurstLen {
			return base * a.BurstFactor
		}
		return base
	default:
		return base
	}
}

// maxRate bounds λ(t) for thinning.
func (a ArrivalSpec) maxRate() float64 {
	base := 1 / a.Mean
	switch a.Kind {
	case ArrivalDiurnal:
		return base * (1 + a.Amplitude)
	case ArrivalBurst:
		return base * a.BurstFactor
	default:
		return base
	}
}

// Next draws the arrival time following `now`. The same RNG state always
// produces the same time; non-stationary processes use Lewis–Shedler
// thinning against the rate envelope so the draw order stays fixed.
func (a ArrivalSpec) Next(rng *rand.Rand, now float64) float64 {
	switch a.Kind {
	case ArrivalDiurnal, ArrivalBurst:
		max := a.maxRate()
		t := now
		for {
			t += rng.ExpFloat64() / max
			if rng.Float64()*max <= a.Rate(t) {
				return t
			}
		}
	case ArrivalHeavyTail:
		// Pareto(xm, α) scaled so the mean interarrival is Mean.
		xm := a.Mean * (a.Alpha - 1) / a.Alpha
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return now + xm*math.Pow(u, -1/a.Alpha)
	default:
		return now + rng.ExpFloat64()*a.Mean
	}
}

// Times draws n successive arrival times starting from zero.
func (a ArrivalSpec) Times(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	now := 0.0
	for i := range out {
		now = a.Next(rng, now)
		out[i] = now
	}
	return out
}

// String renders the spec for listings.
func (a ArrivalSpec) String() string {
	switch a.Kind {
	case ArrivalDiurnal:
		return fmt.Sprintf("diurnal (period %.0fs, amplitude %.2f)", a.Period, a.Amplitude)
	case ArrivalBurst:
		return fmt.Sprintf("burst (×%.0f for %.0fs every %.0fs)", a.BurstFactor, a.BurstLen, a.BurstEvery)
	case ArrivalHeavyTail:
		return fmt.Sprintf("heavy-tail (Pareto α=%.2f)", a.Alpha)
	default:
		return "poisson"
	}
}
