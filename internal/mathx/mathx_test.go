package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestLgammaKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{4, math.Log(6)},
		{5, math.Log(24)},
		{0.5, 0.5 * math.Log(math.Pi)},
	}
	for _, c := range cases {
		if got := Lgamma(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Lgamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestDigammaKnownValues(t *testing.T) {
	const eulerMascheroni = 0.5772156649015329
	cases := []struct{ x, want float64 }{
		{1, -eulerMascheroni},
		{2, 1 - eulerMascheroni},
		{3, 1.5 - eulerMascheroni},
		{0.5, -eulerMascheroni - 2*math.Log(2)},
	}
	for _, c := range cases {
		if got := Digamma(c.x); !almostEqual(got, c.want, 1e-10) {
			t.Errorf("Digamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestDigammaRecurrenceProperty(t *testing.T) {
	// ψ(x+1) = ψ(x) + 1/x for any positive x.
	f := func(raw float64) bool {
		x := math.Abs(raw)
		x = math.Mod(x, 50) + 0.1
		lhs := Digamma(x + 1)
		rhs := Digamma(x) + 1/x
		return almostEqual(lhs, rhs, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogBetaSymmetry(t *testing.T) {
	f := func(ra, rb float64) bool {
		a := math.Mod(math.Abs(ra), 20) + 0.1
		b := math.Mod(math.Abs(rb), 20) + 0.1
		return almostEqual(LogBeta(a, b), LogBeta(b, a), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBetaLogPDFIntegratesToOne(t *testing.T) {
	// Trapezoid integral of exp(logpdf) over (0,1) should be ~1.
	for _, ab := range [][2]float64{{2, 3}, {5, 1.5}, {1.2, 8}, {3, 3}} {
		a, b := ab[0], ab[1]
		const n = 20000
		var sum float64
		for i := 1; i < n; i++ {
			x := float64(i) / n
			sum += math.Exp(BetaLogPDF(x, a, b))
		}
		sum /= n
		if !almostEqual(sum, 1, 1e-3) {
			t.Errorf("Beta(%v,%v) pdf integrates to %v, want 1", a, b, sum)
		}
	}
}

func TestBetaLogPDFOutOfSupport(t *testing.T) {
	for _, x := range []float64{-0.5, 0, 1, 1.5} {
		if got := BetaLogPDF(x, 2, 2); !math.IsInf(got, -1) {
			t.Errorf("BetaLogPDF(%v, 2, 2) = %v, want -Inf", x, got)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := RegIncBeta(0, 2, 3); got != 0 {
		t.Errorf("RegIncBeta(0,...) = %v, want 0", got)
	}
	if got := RegIncBeta(1, 2, 3); got != 1 {
		t.Errorf("RegIncBeta(1,...) = %v, want 1", got)
	}
}

func TestRegIncBetaUniformCase(t *testing.T) {
	// Beta(1,1) is the uniform distribution: CDF(x) = x.
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := RegIncBeta(x, 1, 1); !almostEqual(got, x, 1e-10) {
			t.Errorf("RegIncBeta(%v,1,1) = %v, want %v", x, got, x)
		}
	}
}

func TestRegIncBetaSymmetry(t *testing.T) {
	// I_x(a,b) = 1 − I_{1−x}(b,a).
	f := func(rx, ra, rb float64) bool {
		x := math.Mod(math.Abs(rx), 1)
		if x == 0 {
			x = 0.5
		}
		a := math.Mod(math.Abs(ra), 10) + 0.2
		b := math.Mod(math.Abs(rb), 10) + 0.2
		return almostEqual(RegIncBeta(x, a, b), 1-RegIncBeta(1-x, b, a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaMonotone(t *testing.T) {
	prev := -1.0
	for i := 0; i <= 100; i++ {
		x := float64(i) / 100
		v := RegIncBeta(x, 2.5, 4.0)
		if v < prev-1e-12 {
			t.Fatalf("RegIncBeta not monotone at x=%v: %v < %v", x, v, prev)
		}
		prev = v
	}
}

func TestBetaQuantileRoundTrip(t *testing.T) {
	for _, ab := range [][2]float64{{2, 5}, {7, 3}, {1.5, 1.5}} {
		for _, p := range []float64{0.05, 0.5, 0.95} {
			q := BetaQuantile(p, ab[0], ab[1])
			back := RegIncBeta(q, ab[0], ab[1])
			if !almostEqual(back, p, 1e-6) {
				t.Errorf("quantile round trip Beta(%v,%v) p=%v: got %v", ab[0], ab[1], p, back)
			}
		}
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
	}
	for _, c := range cases {
		if got := NormCDF(c.z); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestSampleGammaMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shape := range []float64{0.5, 1, 2.5, 10} {
		const n = 60000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := SampleGamma(rng, shape)
			if v < 0 {
				t.Fatalf("negative gamma sample %v for shape %v", v, shape)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		if !almostEqual(mean, shape, 0.08*shape+0.02) {
			t.Errorf("Gamma(%v) sample mean %v, want ~%v", shape, mean, shape)
		}
		if !almostEqual(variance, shape, 0.15*shape+0.05) {
			t.Errorf("Gamma(%v) sample variance %v, want ~%v", shape, variance, shape)
		}
	}
}

func TestSampleBetaMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ab := range [][2]float64{{2, 3}, {8, 2}, {1, 1}} {
		a, b := ab[0], ab[1]
		const n = 60000
		var sum float64
		for i := 0; i < n; i++ {
			v := SampleBeta(rng, a, b)
			if v < 0 || v > 1 {
				t.Fatalf("beta sample %v out of [0,1]", v)
			}
			sum += v
		}
		mean := sum / n
		if !almostEqual(mean, BetaMean(a, b), 0.01) {
			t.Errorf("Beta(%v,%v) sample mean %v, want ~%v", a, b, mean, BetaMean(a, b))
		}
	}
}

func TestSampleBetaDegenerateParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		v := SampleBeta(rng, 0, 0)
		if v < 0 || v > 1 {
			t.Fatalf("degenerate beta sample %v out of range", v)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Clamp(-1, 0, 3); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp mid = %v", got)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice guard failed")
	}
}
