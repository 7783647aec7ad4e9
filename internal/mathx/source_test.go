package mathx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds take the special paths of the stdlib's seed reduction: zero
// (mapped to 89482311) and its image, ±1, ±(2³¹−1) and its multiples
// (which reduce to zero), the neighbours of 2³¹−1, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 89482311,
	int32max, -int32max, int32max - 1, int32max + 1,
	2 * int32max, -3 * int32max, int32max * int32max,
	math.MinInt64, math.MaxInt64,
}

// maxDraws covers two full passes over the register, so every stream
// check crosses the first-read boundaries (273 and 334 outputs) and the
// first wrap of the register (607 outputs).
const maxDraws = 2*rngLen + 16

// checkStream makes n calls on got and want, cycling through Uint64,
// Int63, Intn(2), Float64 and NormFloat64 (method = -1), or repeating one
// of them (method 0–4), and reports the first mismatch.
func checkStream(got, want *rand.Rand, n, method int) error {
	for i := 0; i < n; i++ {
		m := method
		if m < 0 {
			m = i % 5
		}
		var g, w any
		switch m {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			g, w = got.Intn(2), want.Intn(2)
		case 3:
			g, w = got.Float64(), want.Float64()
		default:
			g, w = got.NormFloat64(), want.NormFloat64()
		}
		if g != w {
			return fmt.Errorf("call %d (method %d): got %v, want %v", i, m, g, w)
		}
	}
	return nil
}

func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	for _, seed := range seeds {
		for method := -1; method < 5; method++ {
			got := rand.New(NewSource(seed))
			want := rand.New(rand.NewSource(seed))
			if err := checkStream(got, want, maxDraws, method); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestSourceReseedAfterPartialUse re-seeds a source stopped on either side
// of each first-read boundary: a Seed must discard every word the earlier
// stream built or overwrote.
func TestSourceReseedAfterPartialUse(t *testing.T) {
	src := NewSource(42)
	got := rand.New(src)
	for _, used := range []int{0, 1, rngTap - 1, rngTap, rngTap + 1, rngFeed - 1, rngFeed, rngFeed + 1, rngLen - 1, rngLen, rngLen + 1, maxDraws} {
		for _, seed := range edgeSeeds {
			got.Seed(seed ^ 0x5eed)
			for i := 0; i < used; i++ {
				src.Uint64()
			}
			got.Seed(seed)
			if err := checkStream(got, rand.New(rand.NewSource(seed)), maxDraws, -1); err != nil {
				t.Fatalf("seed %d after %d draws: %v", seed, used, err)
			}
		}
	}
}

// FuzzSourceMatchesMathRand checks that for any seed, any number of
// mixed-method calls, and any re-seed of the partly used source, the
// stream equals rand.New(rand.NewSource(seed))'s.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, uint16(maxDraws), edgeSeeds[(i+1)%len(edgeSeeds)], uint16(rngFeed+1))
		f.Add(seed, uint16(rngTap), seed, uint16(rngLen+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, reseed int64, redraws uint16) {
		got := rand.New(NewSource(seed))
		if err := checkStream(got, rand.New(rand.NewSource(seed)), int(draws)%(2*maxDraws), -1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got.Seed(reseed)
		if err := checkStream(got, rand.New(rand.NewSource(reseed)), int(redraws)%(2*maxDraws), -1); err != nil {
			t.Fatalf("re-seed %d after %d calls: %v", reseed, draws, err)
		}
	})
}

// BenchmarkSeedAndDraw compares seeding a pooled generator and drawing
// the ~33 values an average evolution candidate consumes.
func BenchmarkSeedAndDraw(b *testing.B) {
	for _, bc := range []struct {
		name string
		rng  *rand.Rand
	}{
		{"stdlib", rand.New(rand.NewSource(0))},
		{"lazy", rand.New(NewSource(0))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.rng.Seed(int64(i))
				for k := 0; k < 33; k++ {
					bc.rng.Int63()
				}
			}
		})
	}
}
