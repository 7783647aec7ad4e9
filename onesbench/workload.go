package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/pkg/ones/serve"
)

// A workload is one traffic mix: the daemon flags it needs, the requests
// its untimed set-up phase issues, and the i-th request of its timed
// sequence. Every request is derived from the workload seed; the daemon
// only ever sees the generated specs.
type workload struct {
	name string
	// cacheDir starts the daemon with a fresh -cache-dir, so computed
	// cells are written through to disk.
	cacheDir bool
	// maxEntries is the daemon's -cache-max-entries (0: unbounded memo).
	maxEntries int
	// setup lists the requests of the set-up phase, in order.
	setup func(seed int64) []serve.RunSpec
	// request returns the generator of the timed sequence: called with
	// i = 0, 1, 2, … in turn, it returns request i. A generator is not
	// safe for concurrent use.
	request func(seed int64) func(i int) serve.RunSpec
}

var workloads = []workload{
	{
		// The paper's own path: every request is a distinct quick-scale
		// ONES cell, so evolution, predictor and perfmodel do nearly all
		// the work.
		name:  "ones-cold",
		setup: func(int64) []serve.RunSpec { return []serve.RunSpec{onesSpec(0)} },
		request: func(seed int64) func(int) serve.RunSpec {
			order := coldOrder(seed, onesPool, 1)
			return func(i int) serve.RunSpec { return onesSpec(order(i)) }
		},
	},
	{
		// No evolution: the simulator event loop, heuristic Decide calls,
		// both capacity paths, workload generation and servecache writes.
		// An evolution change must read as no change here.
		name:     "baseline-cold",
		cacheDir: true,
		setup: func(int64) []serve.RunSpec {
			specs := make([]serve.RunSpec, len(baseClasses))
			for c := range baseClasses {
				specs[c] = baseSpec(c)
			}
			return specs
		},
		request: func(seed int64) func(int) serve.RunSpec {
			order := coldOrder(seed, basePool, len(baseClasses))
			return func(i int) serve.RunSpec { return baseSpec(order(i)) }
		},
	},
	{
		// Memo and disk hits with zero computes: serve, the ones session
		// and the servecache read path do all the work. The memo cap sits
		// below the working set, so memo and disk trade places.
		name:       "warm-mixed",
		cacheDir:   true,
		maxEntries: 16,
		setup:      warmCells,
		request: func(seed int64) func(int) serve.RunSpec {
			cells, z, rng := warmCells(seed), newZipf(warmKeys, warmZipfS), rand.New(rand.NewSource(seed))
			return func(int) serve.RunSpec { return cells[z.draw(rng)] }
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// onesJobs sizes the ONES cells: a quick-scale trace cut to 12 jobs keeps a
// cell near a third of a second, so a run collects well over the 100
// latency samples its p90 needs.
const onesJobs = 12

// onesPool is how many ONES cells have a recorded reference digest.
const onesPool = 1024

// onesSpec is the i-th ONES cell. Index 0 is the set-up warm-up and never
// appears in a timed sequence.
func onesSpec(i int) serve.RunSpec {
	return serve.RunSpec{Scheduler: "ones", Quick: true, Jobs: onesJobs, Seed: 1000 + int64(i)}
}

// baseClasses are the request classes of baseline-cold: every baseline
// scheduler under a static, two failure-driven and one autoscaled world.
var baseClasses = func() []serve.RunSpec {
	var out []serve.RunSpec
	for _, sched := range []string{"fifo", "tiresias", "optimus", "drl"} {
		out = append(out,
			serve.RunSpec{Scheduler: sched, Scenario: "steady"},
			serve.RunSpec{Scheduler: sched, Scenario: "spot"},
			serve.RunSpec{Scheduler: sched, Scenario: "node-failure"},
			serve.RunSpec{Scheduler: sched, Scenario: "diurnal", Autoscaler: "reactive-conservative"},
		)
	}
	return out
}()

// basePool is how many baseline cells have a recorded reference digest.
const basePool = 4096

// baseSpec is the i-th default-scale baseline cell: class i mod 16, trace
// seed i/16 (so the 16 classes replay paired traces). Indices below 16 are
// the set-up warm-ups and never appear in a timed sequence.
func baseSpec(i int) serve.RunSpec {
	sp := baseClasses[i%len(baseClasses)]
	sp.Seed = 100000 + int64(i/len(baseClasses))
	return sp
}

// coldOrder maps timed request i to a pool index: requests cycle through
// the classes, and within a class walk a seeded permutation of the pool
// members other than the class's warm-up (rank 0). Past the pool the
// indices keep growing, so requests stay distinct but have no recorded
// digest.
func coldOrder(seed int64, pool, classes int) func(i int) int {
	perClass := pool / classes
	rng := rand.New(rand.NewSource(seed))
	perms := make([][]int, classes)
	for c := range perms {
		perms[c] = rng.Perm(perClass - 1)
	}
	return func(i int) int {
		c, k := i%classes, i/classes
		if k < perClass-1 {
			return c + classes*(1+perms[c][k])
		}
		return c + classes*(perClass+k-(perClass-1))
	}
}

// warmKeys is the warm-mixed working set, four times the daemon's memo cap.
const warmKeys = 64

// warmZipfS is the skew of warm-mixed key popularity.
const warmZipfS = 1.0

// warmCells is the warm-mixed working set, hottest rank first. Rank r
// uses baseline class r mod 16, so every seed has the same mix of
// schedulers and worlds; only the trace seeds come from the workload
// seed. Ranks r ≡ 1 (mod 8) also record the event log, a fixed minority
// of large results.
func warmCells(seed int64) []serve.RunSpec {
	classes := len(baseClasses)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pick := rng.Perm(basePool/classes - 1)
	cells := make([]serve.RunSpec, warmKeys)
	for r := range cells {
		cells[r] = baseSpec(r%classes + classes*(1+pick[r/classes]))
		cells[r].RecordEvents = r%8 == 1
	}
	return cells
}

// zipf draws ranks 0..n-1 with P(r) ∝ 1/(r+1)^s. Unlike math/rand's Zipf
// it accepts s = 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	r := sort.SearchFloat64s(z.cdf, rng.Float64())
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}
