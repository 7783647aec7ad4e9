package mathx

import "math/rand"

// The generator behind rand.NewSource is an additive lagged-Fibonacci
// register of rngLen words with tap distance rngTap. Seeding fills the
// register with (Lehmer word) ⊕ rngCooked[i], where the Lehmer words come
// from x_{k+1} = 48271·x_k mod (2³¹−1) started at the reduced seed.
const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap // feed index right after Seed
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedSkip Lehmer steps are discarded before the first register word.
	seedSkip = 20
)

var (
	// lehmerPow[i][j] = 48271^(seedSkip+1+3i+j) mod (2³¹−1): the
	// multipliers that jump the Lehmer sequence straight from the seed to
	// the three values register word i is built from.
	lehmerPow [rngLen][3]uint64
	// rngCooked is the stdlib's seeding table, recovered from the output
	// of rand.NewSource(1) rather than copied (see recoverCooked).
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= seedSkip; k++ {
		p = mulmod31(p, 48271)
	}
	for i := range lehmerPow {
		for j := range lehmerPow[i] {
			p = mulmod31(p, 48271)
			lehmerPow[i][j] = p
		}
	}
	recoverCooked()
}

// recoverCooked rebuilds rngCooked from the first rngLen outputs u_n
// (1-based) of rand.NewSource(1). Output n adds the feed word at
// (rngFeed−n) mod rngLen to the tap word at rngLen−n. For n > rngTap the
// tap word was overwritten by output n−rngTap, and the feed word is still
// the seeded one; for n ≤ rngTap both are seeded words, and the tap word
// is one the first case already recovered. Removing the Lehmer part of
// seed 1 from each seeded word leaves the table.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var u [rngLen + 1]int64
	for n := 1; n <= rngLen; n++ {
		u[n] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for n := rngTap + 1; n <= rngLen; n++ {
		vec[(rngFeed-n+rngLen)%rngLen] = u[n] - u[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		vec[rngFeed-n] = u[n] - vec[rngLen-n]
	}
	for i := range vec {
		rngCooked[i] = vec[i] ^ lehmerWord(1, i)
	}
}

// mulmod31 returns a·b mod (2³¹−1) for a, b < 2³¹. Because 2³¹ ≡ 1, the
// high and low 31-bit halves of the product add up to it modulo 2³¹−1.
func mulmod31(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// lehmerWord is the Lehmer part of register word i for reduced seed x0.
func lehmerWord(x0 uint64, i int) int64 {
	m := &lehmerPow[i]
	return int64(mulmod31(m[0], x0))<<40 ^
		int64(mulmod31(m[1], x0))<<20 ^
		int64(mulmod31(m[2], x0))
}

// Source is a rand.Source64 whose stream is bit-for-bit that of
// rand.NewSource(seed), but whose Seed is O(1): it records the reduced
// seed and builds each register word on its first read. Re-seeding a
// stdlib source rewrites all 607 words; a caller drawing a few dozen
// values from a freshly seeded Source builds only the words those draws
// read.
//
// Output n (1-based) reads the feed word (rngFeed−n) mod rngLen and the
// tap word rngLen−n. Only outputs 1…rngFeed read a feed word no earlier
// output wrote, and only outputs 1…rngTap a tap word none wrote, so
// building both on those outputs covers every first read.
//
// A Source must be seeded (NewSource or Seed) before use and is not safe
// for concurrent use.
type Source struct {
	x0    uint64 // reduced seed, in [1, 2³¹−2]
	drawn int    // outputs since Seed, saturating at rngFeed
	tap   int
	feed  int
	vec   [rngLen]int64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream of rand.NewSource(seed), reducing
// seed exactly as the stdlib does.
func (s *Source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.drawn = 0
	s.tap = 0
	s.feed = rngFeed
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < rngFeed {
		s.drawn++
		s.vec[s.feed] = lehmerWord(s.x0, s.feed) ^ rngCooked[s.feed]
		if s.drawn <= rngTap {
			s.vec[s.tap] = lehmerWord(s.x0, s.tap) ^ rngCooked[s.tap]
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }
