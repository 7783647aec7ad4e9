package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWilcoxonDetectsClearShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 60
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		base := 100 + rng.Float64()*400
		x[i] = base * 0.7 // x clearly smaller
		y[i] = base
	}
	two, err := Wilcoxon(x, y, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if two.P > 1e-4 {
		t.Errorf("two-sided p = %v, want tiny for a 30%% shift", two.P)
	}
	less, err := Wilcoxon(x, y, Less)
	if err != nil {
		t.Fatal(err)
	}
	if less.P > 1e-4 {
		t.Errorf("one-sided (less) p = %v, want tiny", less.P)
	}
	greater, err := Wilcoxon(x, y, Greater)
	if err != nil {
		t.Fatal(err)
	}
	if greater.P < 0.99 {
		t.Errorf("one-sided (greater) p = %v, want ~1", greater.P)
	}
}

func TestWilcoxonNullIsInsignificant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reject := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		n := 50
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		res, err := Wilcoxon(x, y, TwoSided)
		if err != nil {
			t.Fatal(err)
		}
		if res.P < 0.05 {
			reject++
		}
	}
	// Expect about 5% false rejections; 20% across 40 trials is already
	// suspicious.
	if reject > 8 {
		t.Errorf("null rejected %d/%d times at α=0.05", reject, trials)
	}
}

func TestWilcoxonErrors(t *testing.T) {
	if _, err := Wilcoxon([]float64{1, 2}, []float64{1}, TwoSided); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Wilcoxon([]float64{1, 2, 3}, []float64{1, 2, 3}, TwoSided); err == nil {
		t.Error("all-zero differences accepted")
	}
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{2, 3, 4, 5, 6, 7}
	if _, err := Wilcoxon(x, y, Alternative(9)); err == nil {
		t.Error("bad alternative accepted")
	}
}

func TestWilcoxonDropsZeroDifferences(t *testing.T) {
	// x − y = +1, −2, +3, −4, +5, +6, +7 and three zeros. The zeros drop,
	// the seven magnitudes rank 1..7 untied, and the positive ranks sum
	// to W = 1+3+5+6+7 = 22 against a null mean of n(n+1)/4 = 14 and a
	// variance of n(n+1)(2n+1)/24 = 35, so the continuity-corrected
	// score is Z = (22 − 14 − 0.5)/√35.
	x := []float64{2, 1, 4, 1, 6, 7, 8, 10, 10, 10}
	y := []float64{1, 3, 1, 5, 1, 1, 1, 10, 10, 10}
	res, err := Wilcoxon(x, y, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 7 || res.TieCount != 0 {
		t.Errorf("effective n = %d, ties = %d, want 7 (zeros dropped) and 0", res.N, res.TieCount)
	}
	if res.W != 22 {
		t.Errorf("W = %v, want 22", res.W)
	}
	if want := 7.5 / math.Sqrt(35); math.Abs(res.Z-want) > 1e-12 {
		t.Errorf("Z = %v, want %v", res.Z, want)
	}
}

func TestWilcoxonHandlesTies(t *testing.T) {
	// All absolute differences equal: heavily tied but not degenerate in
	// sign. The eight tied ranks average 4.5, and the four positive ones
	// sum to W = 18, exactly the null mean 8·9/4, so Z = 0.
	x := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	y := []float64{2, 0, 2, 0, 2, 0, 2, 0}
	res, err := Wilcoxon(x, y, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.TieCount != 8 {
		t.Errorf("tie count = %d, want 8", res.TieCount)
	}
	if res.W != 18 || res.Z != 0 {
		t.Errorf("W = %v, Z = %v, want 18 and 0", res.W, res.Z)
	}
	if res.P < 0.9 {
		t.Errorf("balanced signs should be insignificant, p = %v", res.P)
	}
}

func TestWilcoxonSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 100
			y[i] = rng.Float64() * 100
		}
		a, errA := Wilcoxon(x, y, Less)
		b, errB := Wilcoxon(y, x, Greater)
		if errA != nil || errB != nil {
			return true // degenerate draw
		}
		return math.Abs(a.P-b.P) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBoxKnownValues(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Q1 != 2 || b.Q3 != 4 || b.Mean != 3 || b.N != 5 {
		t.Errorf("Box = %+v", b)
	}
	if got := Box(nil); got.N != 0 {
		t.Errorf("Box(nil) = %+v", got)
	}
}

func TestBoxDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Box(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Box mutated its input: %v", xs)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	if got := Quantile(s, 0); got != 10 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(s, 1); got != 40 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(s, 0.5); got != 25 {
		t.Errorf("median = %v, want 25", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64() * 1000
		}
		// Quantile expects sorted input.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(s, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestECDF(t *testing.T) {
	data := []float64{1, 2, 2, 3}
	at := []float64{0.5, 1, 2, 3, 10}
	got := ECDF(data, at)
	want := []float64{0, 0.25, 0.75, 1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("ECDF at %v = %v, want %v", at[i], got[i], want[i])
		}
	}
}

func TestFractionBelow(t *testing.T) {
	data := []float64{100, 150, 200, 300}
	if got := FractionBelow(data, 200); got != 0.75 {
		t.Errorf("FractionBelow = %v, want 0.75", got)
	}
	if got := FractionBelow(nil, 5); got != 0 {
		t.Errorf("empty FractionBelow = %v", got)
	}
}

func TestLogSpace(t *testing.T) {
	pts := LogSpace(10, 1000, 3)
	want := []float64{10, 100, 1000}
	if len(pts) != 3 {
		t.Fatalf("LogSpace len = %d", len(pts))
	}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-9 {
			t.Errorf("LogSpace[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if LogSpace(0, 10, 3) != nil {
		t.Error("LogSpace with lo=0 should be nil")
	}
	if LogSpace(10, 5, 3) != nil {
		t.Error("LogSpace with hi<lo should be nil")
	}
}
