// Package mathx provides the special functions and random-variate
// generators needed by the ONES predictor and statistics modules:
// log-gamma, digamma, trigamma, the regularized incomplete beta function,
// the standard normal CDF, Beta/Gamma samplers, and Source, a lazily
// seeded generator that reproduces rand.NewSource's stream exactly.
//
// Everything is implemented from scratch on top of math so the module has
// no dependencies outside the standard library.
package mathx

import (
	"math"
	"math/rand"
)

// Lgamma returns the natural logarithm of the absolute value of the Gamma
// function at x. It is a thin wrapper over math.Lgamma that discards the
// sign, which is always +1 for the positive arguments used in this module.
func Lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Digamma returns the digamma function ψ(x) = d/dx ln Γ(x) for x > 0.
//
// The implementation uses the standard recurrence ψ(x) = ψ(x+1) − 1/x to
// shift the argument above 6 and then applies the asymptotic expansion
// ψ(x) ≈ ln x − 1/(2x) − 1/(12x²) + 1/(120x⁴) − 1/(252x⁶).
func Digamma(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	var result float64
	for x < 10 {
		result -= 1 / x
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv -
		inv2*(1.0/12.0-inv2*(1.0/120.0-inv2*(1.0/252.0-inv2/240.0)))
	return result
}

// LogBeta returns ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b).
func LogBeta(a, b float64) float64 {
	return Lgamma(a) + Lgamma(b) - Lgamma(a+b)
}

// BetaLogPDF returns the log-density of the Beta(a, b) distribution at x.
// It returns -Inf outside the open interval (0, 1).
func BetaLogPDF(x, a, b float64) float64 {
	if x <= 0 || x >= 1 {
		return math.Inf(-1)
	}
	return (a-1)*math.Log(x) + (b-1)*math.Log(1-x) - LogBeta(a, b)
}

// BetaMean returns the mean a/(a+b) of a Beta(a, b) distribution.
func BetaMean(a, b float64) float64 { return a / (a + b) }

// RegIncBeta returns the regularized incomplete beta function I_x(a, b),
// which is the CDF of the Beta(a, b) distribution at x. It uses the
// continued-fraction expansion from Numerical Recipes (betacf).
func RegIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	ln := a*math.Log(x) + b*math.Log(1-x) - LogBeta(a, b)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction for RegIncBeta using the
// modified Lentz algorithm.
func betaCF(x, a, b float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpMin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// BetaQuantile returns the p-quantile of a Beta(a, b) distribution via
// bisection on RegIncBeta. p must be in [0, 1].
func BetaQuantile(p, a, b float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if RegIncBeta(mid, a, b) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// NormCDF returns the CDF of the standard normal distribution at z.
func NormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// SampleGamma draws a Gamma(shape, 1) variate using the Marsaglia–Tsang
// method for shape >= 1 and the boost trick for shape < 1.
func SampleGamma(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a).
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return SampleGamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// SampleBeta draws a Beta(a, b) variate as Ga/(Ga+Gb) with independent
// Gamma variates. Degenerate parameters are clamped to a tiny positive
// value so the sampler never divides by zero.
func SampleBeta(rng *rand.Rand, a, b float64) float64 {
	const tiny = 1e-9
	if a < tiny {
		a = tiny
	}
	if b < tiny {
		b = tiny
	}
	ga := SampleGamma(rng, a)
	gb := SampleGamma(rng, b)
	if ga+gb == 0 {
		return 0.5
	}
	return ga / (ga + gb)
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
