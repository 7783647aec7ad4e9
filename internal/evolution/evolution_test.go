package evolution

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/predictor"
)

// testCtx builds a Context with n alive jobs over the given topology.
// Jobs get staggered limits, processed history and progress distributions.
func testCtx(seed int64, n int, topo cluster.Topology) *Context {
	prof := perfmodel.CIFARResNet50()
	jobs := make(map[cluster.JobID]*JobInfo, n)
	for i := 0; i < n; i++ {
		id := cluster.JobID(i)
		jobs[id] = &JobInfo{
			ID:               id,
			Limit:            256 << uint(i%4), // 256..2048
			MaxPerGPU:        prof.MaxPerGPU,
			EpochSize:        40000,
			ProcessedSamples: float64(40000 * (i % 5)),
			ProcessedTime:    float64(60 * i),
			Dist:             predictor.Dist{Alpha: float64(1 + i%5), Beta: float64(2 + i%7)},
		}
	}
	return &Context{
		Topo: topo,
		Jobs: jobs,
		Throughput: func(j cluster.JobID, B, c, servers int) float64 {
			return perfmodel.Throughput(prof, B, c, servers)
		},
		Rng: rand.New(rand.NewSource(seed)),
	}
}

func validateLimits(t *testing.T, s *cluster.Schedule, ctx *Context) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	for _, j := range s.RunningJobs() {
		info, ok := ctx.Jobs[j]
		if !ok {
			t.Fatalf("completed job %d still scheduled", j)
		}
		if B := s.GlobalBatch(j); B > info.Limit {
			t.Fatalf("job %d batch %d exceeds limit %d", j, B, info.Limit)
		}
		for _, g := range s.GPUsOf(j) {
			if b := s.Slot(g).Batch; b > info.MaxPerGPU {
				t.Fatalf("job %d local batch %d exceeds GPU memory %d", j, b, info.MaxPerGPU)
			}
		}
	}
}

func TestRefreshFillsEmptyCluster(t *testing.T) {
	topo := cluster.Uniform(2, 4)
	ctx := testCtx(1, 6, topo)
	s := Refresh(cluster.NewSchedule(topo), ctx)
	validateLimits(t, s, ctx)
	if s.NumIdle() != 0 {
		t.Errorf("refresh left %d idle GPUs with 6 hungry jobs", s.NumIdle())
	}
	if len(s.RunningJobs()) == 0 {
		t.Error("refresh scheduled nothing")
	}
}

func TestRefreshRemovesCompletedJobs(t *testing.T) {
	topo := cluster.Uniform(1, 4)
	ctx := testCtx(2, 3, topo)
	s := cluster.NewSchedule(topo)
	s.SetSlot(0, 99, 128) // job 99 is not alive
	s.SetSlot(1, 0, 128)
	out := Refresh(s, ctx)
	if out.IsRunning(99) {
		t.Error("completed job survived refresh")
	}
	validateLimits(t, out, ctx)
}

func TestRefreshEnforcesLimit(t *testing.T) {
	topo := cluster.Uniform(1, 4)
	ctx := testCtx(3, 1, topo)
	ctx.Jobs[0].Limit = 256
	s := cluster.NewSchedule(topo)
	// Job 0 over-allocated: B = 1024 > R = 256.
	for g := 0; g < 4; g++ {
		s.SetSlot(cluster.GPUID(g), 0, 256)
	}
	out := Refresh(s, ctx)
	validateLimits(t, out, ctx)
	if B := out.GlobalBatch(0); B > 256 {
		t.Errorf("limit not enforced: B = %d", B)
	}
}

func TestRefreshAllocatesNewJobsOnFullCluster(t *testing.T) {
	topo := cluster.Uniform(1, 4)
	ctx := testCtx(4, 5, topo)
	// Jobs 0..3 fill the cluster; job 4 is brand new.
	ctx.NewJobs = []cluster.JobID{4}
	ctx.Jobs[4].ProcessedSamples = 0
	ctx.Jobs[4].ProcessedTime = 0
	s := cluster.NewSchedule(topo)
	for g := 0; g < 4; g++ {
		s.SetSlot(cluster.GPUID(g), cluster.JobID(g), 256)
	}
	out := Refresh(s, ctx)
	validateLimits(t, out, ctx)
	if !out.IsRunning(4) {
		t.Error("new job not allocated despite preferential policy")
	}
}

func TestRefreshTakesFromLongestRunningJob(t *testing.T) {
	topo := cluster.Uniform(1, 4)
	ctx := testCtx(5, 5, topo)
	ctx.NewJobs = []cluster.JobID{4}
	// Job 2 has by far the largest processed time.
	for i := 0; i < 4; i++ {
		ctx.Jobs[cluster.JobID(i)].ProcessedTime = 10
	}
	ctx.Jobs[2].ProcessedTime = 10_000
	ctx.Jobs[4].ProcessedTime = 0
	s := cluster.NewSchedule(topo)
	for g := 0; g < 4; g++ {
		s.SetSlot(cluster.GPUID(g), cluster.JobID(g), 256)
	}
	out := Refresh(s, ctx)
	if out.IsRunning(2) && out.GPUCount(2) >= 1 && !out.IsRunning(4) {
		t.Error("new job should displace the longest-running job")
	}
}

func TestCrossoverIdenticalParentsYieldIdenticalChildren(t *testing.T) {
	topo := cluster.Uniform(1, 4)
	ctx := testCtx(6, 4, topo)
	parent := Refresh(cluster.NewSchedule(topo), ctx)
	c1, c2 := Crossover(parent, parent, ctx)
	if !c1.Equal(parent) || !c2.Equal(parent) {
		t.Error("crossover of identical full parents should be a no-op")
	}
}

func TestCrossoverChildrenValid(t *testing.T) {
	topo := cluster.Uniform(2, 4)
	ctx := testCtx(7, 6, topo)
	a := Refresh(cluster.NewSchedule(topo), ctx)
	b := Refresh(cluster.NewSchedule(topo), ctx)
	c1, c2 := Crossover(a, b, ctx)
	validateLimits(t, c1, ctx)
	validateLimits(t, c2, ctx)
}

func TestMutateThetaOneEvictsAndRefills(t *testing.T) {
	topo := cluster.Uniform(1, 4)
	ctx := testCtx(8, 4, topo)
	s := Refresh(cluster.NewSchedule(topo), ctx)
	m := Mutate(s, ctx, 1.0)
	validateLimits(t, m, ctx)
	if m.NumIdle() != 0 {
		t.Errorf("mutation left %d idle GPUs with hungry jobs", m.NumIdle())
	}
}

func TestMutateThetaZeroKeepsAssignmentsStable(t *testing.T) {
	topo := cluster.Uniform(1, 4)
	ctx := testCtx(9, 4, topo)
	s := Refresh(cluster.NewSchedule(topo), ctx)
	m := Mutate(s, ctx, 0)
	// With θ=0 no eviction happens; normalize/fill of an already feasible
	// full schedule must not change job placement.
	for _, j := range s.RunningJobs() {
		if m.GPUCount(j) != s.GPUCount(j) {
			t.Errorf("θ=0 mutation changed job %d GPU count", j)
		}
	}
}

func TestScoreEmptyScheduleZero(t *testing.T) {
	topo := cluster.Uniform(1, 2)
	ctx := testCtx(10, 2, topo)
	s := cluster.NewSchedule(topo)
	if got := Score(s, ctx, SampleRhos(ctx)); got != 0 {
		t.Errorf("empty schedule score = %v, want 0", got)
	}
}

func TestScoreInfiniteOnZeroThroughput(t *testing.T) {
	topo := cluster.Uniform(1, 2)
	ctx := testCtx(11, 1, topo)
	ctx.Throughput = func(cluster.JobID, int, int, int) float64 { return 0 }
	s := cluster.NewSchedule(topo)
	s.SetSlot(0, 0, 128)
	if got := Score(s, ctx, SampleRhos(ctx)); !math.IsInf(got, 1) {
		t.Errorf("score with zero throughput = %v, want +Inf", got)
	}
}

func TestScorePrefersNearlyDoneJobs(t *testing.T) {
	topo := cluster.Uniform(1, 1)
	ctx := testCtx(12, 2, topo)
	// Job 0 nearly done (ρ≈0.95), job 1 barely started (ρ≈0.05); equal
	// history otherwise.
	for _, id := range []cluster.JobID{0, 1} {
		ctx.Jobs[id].ProcessedSamples = 80000
		ctx.Jobs[id].Limit = 256
	}
	rhos := map[cluster.JobID]float64{0: 0.95, 1: 0.05}
	s0 := cluster.NewSchedule(topo)
	s0.SetSlot(0, 0, 256)
	s1 := cluster.NewSchedule(topo)
	s1.SetSlot(0, 1, 256)
	if Score(s0, ctx, rhos) >= Score(s1, ctx, rhos) {
		t.Error("running the nearly-done job should score lower (SRUF)")
	}
}

func TestSampleRhosInOpenInterval(t *testing.T) {
	ctx := testCtx(13, 8, cluster.Uniform(1, 4))
	rhos := SampleRhos(ctx)
	if len(rhos) != 8 {
		t.Fatalf("got %d draws, want 8", len(rhos))
	}
	for id, r := range rhos {
		if r <= 0 || r >= 1 {
			t.Errorf("job %d drew ρ=%v outside (0,1)", id, r)
		}
	}
}

func TestEngineIterateProducesValidFullSchedule(t *testing.T) {
	topo := cluster.Uniform(2, 4)
	ctx := testCtx(14, 10, topo)
	e := NewEngine(8, 0.2)
	var best *cluster.Schedule
	for i := 0; i < 5; i++ {
		best = e.Iterate(ctx)
	}
	validateLimits(t, best, ctx)
	if best.NumIdle() != 0 {
		t.Errorf("champion leaves %d GPUs idle with 10 hungry jobs", best.NumIdle())
	}
	if len(e.Population()) != 8 {
		t.Errorf("population size %d, want 8", len(e.Population()))
	}
}

func TestEngineDeterministicGivenSeed(t *testing.T) {
	run := func() string {
		topo := cluster.Uniform(2, 2)
		ctx := testCtx(42, 5, topo)
		e := NewEngine(6, 0.3)
		var best *cluster.Schedule
		for i := 0; i < 4; i++ {
			best = e.Iterate(ctx)
		}
		return best.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different champions:\n%s\n%s", a, b)
	}
}

func TestEngineImprovesOverRandomRefresh(t *testing.T) {
	topo := cluster.Uniform(4, 4)
	ctx := testCtx(15, 12, topo)
	meanRhos := make(map[cluster.JobID]float64, len(ctx.Jobs))
	for id, info := range ctx.Jobs {
		meanRhos[id] = info.Dist.Mean()
	}
	// Baseline: average score of single refreshes from empty.
	var refreshSum float64
	const trials = 10
	for i := 0; i < trials; i++ {
		refreshSum += Score(Refresh(cluster.NewSchedule(topo), ctx), ctx, meanRhos)
	}
	refreshMean := refreshSum / trials
	// Evolution: champion after several iterations.
	e := NewEngine(12, 0.2)
	var best *cluster.Schedule
	for i := 0; i < 8; i++ {
		best = e.Iterate(ctx)
	}
	champ := Score(best, ctx, meanRhos)
	if champ > refreshMean*1.05 {
		t.Errorf("evolution champion (%v) should not be worse than mean random refresh (%v)", champ, refreshMean)
	}
}

func TestEngineAblationSwitches(t *testing.T) {
	topo := cluster.Uniform(2, 2)
	ctx := testCtx(17, 5, topo)
	e := NewEngine(4, 0.2)
	e.DisableReorder = true
	e.DisableSampling = true
	best := e.Iterate(ctx)
	validateLimits(t, best, ctx)
}

func TestRefreshInvariantsProperty(t *testing.T) {
	f := func(seed int64, nJobs uint8) bool {
		n := int(nJobs)%12 + 1
		topo := cluster.Uniform(2, 4)
		ctx := testCtx(seed, n, topo)
		s := Refresh(cluster.NewSchedule(topo), ctx)
		if s.Validate() != nil {
			return false
		}
		for _, j := range s.RunningJobs() {
			info := ctx.Jobs[j]
			if s.GlobalBatch(j) > info.Limit {
				return false
			}
			for _, g := range s.GPUsOf(j) {
				if s.Slot(g).Batch > info.MaxPerGPU {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEngineChampionInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		topo := cluster.Uniform(2, 2)
		ctx := testCtx(seed, 6, topo)
		e := NewEngine(5, 0.25)
		best := e.Iterate(ctx)
		if best.Validate() != nil {
			return false
		}
		for _, j := range best.RunningJobs() {
			if best.GlobalBatch(j) > ctx.Jobs[j].Limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEngineParallelMatchesSerial is the determinism matrix for parallel
// candidate generation: at parallelism 1, 4 and GOMAXPROCS the champion
// genome, the whole population and every sampled score must be
// byte-identical — the fan-out must never change a result, only wall
// time. Run under -race this also exercises the workers' memos, the
// scores they write and the recycled candidate slots.
func TestEngineParallelMatchesSerial(t *testing.T) {
	run := func(parallelism int) string {
		topo := cluster.Uniform(2, 4)
		ctx := testCtx(77, 8, topo)
		e := NewEngine(8, 0.2)
		e.Parallelism = parallelism
		var best *cluster.Schedule
		for i := 0; i < 5; i++ {
			best = e.Iterate(ctx)
		}
		// Snapshot everything selection produced: champion, population
		// order, and scores under one deterministic draw set. The master
		// RNG consumed an identical stream at any parallelism, so these
		// draws line up across runs too.
		rhos := SampleRhos(ctx)
		out := "champion=" + best.String() + "\n"
		for i, s := range e.Population() {
			out += fmt.Sprintf("pop[%d] score=%v genome=%s\n", i, Score(s, ctx, rhos), s)
		}
		return out
	}
	serial := run(1)
	for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(par); got != serial {
			t.Errorf("parallelism %d changed the outcome:\nserial:\n%s\nparallel:\n%s", par, serial, got)
		}
	}
}

// TestEngineNeverOverwritesRetainedGenomes pins the ownership rule that
// candidate-slot recycling relies on: every champion Iterate returns and
// every genome that was ever in the population may be retained by the
// caller, so no later round may write into it. Each retained genome is
// checked against its String() snapshot after every round.
func TestEngineNeverOverwritesRetainedGenomes(t *testing.T) {
	for _, par := range []int{1, 2} {
		topo := cluster.Uniform(2, 4)
		ctx := testCtx(31, 8, topo)
		e := NewEngine(6, 0.3)
		e.Parallelism = par
		kept := map[*cluster.Schedule]string{}
		for round := 0; round < 6; round++ {
			best := e.Iterate(ctx)
			kept[best] = best.String()
			for _, s := range e.Population() {
				kept[s] = s.String()
			}
			for s, want := range kept {
				if got := s.String(); got != want {
					t.Fatalf("parallelism %d, round %d: retained genome overwritten:\nwas %s\nnow %s", par, round, want, got)
				}
			}
		}
	}
}

// TestScoreMemoMatchesRecompute is the memo soundness property for an
// Engine worker's throughput memo.
//
// Across 1000 random mutate/crossover candidates built and scored on one
// worker's scratch, whose memo fills as it goes, every candidate and its
// score must equal what the standalone operators and Score compute on a
// bare Context, which calls Throughput directly. Equality is exact: the
// memo stores the very float64 the direct call returns.
//
// A memo must also never outlive its Context. An engine whose workers
// served one Context then serves a second one over the same job IDs whose
// Throughput returns twice the first's values; every score of each round
// must be the one Score computes under that round's Context.
func TestScoreMemoMatchesRecompute(t *testing.T) {
	t.Run("candidates", func(t *testing.T) {
		topo := cluster.Uniform(4, 4)
		ctx := testCtx(123, 10, topo)
		plain := &Context{Topo: ctx.Topo, Jobs: ctx.Jobs, Throughput: ctx.Throughput}
		w := newWorker()
		pop := []*cluster.Schedule{
			Refresh(cluster.NewSchedule(topo), ctx),
			Refresh(cluster.NewSchedule(topo), ctx),
		}
		for i := 0; i < 1000; i++ {
			seed := ctx.Rng.Int63()
			sub := *ctx
			sub.Rng = w.rng
			w.rng.Seed(seed)
			plain.Rng = rand.New(rand.NewSource(seed))
			var cand, want *cluster.Schedule
			if i%2 == 0 {
				cand = mutate(nil, pop[i/2%2], &sub, 0.3, &w.sc)
				want = Mutate(pop[i/2%2], plain, 0.3)
			} else {
				cand, _ = crossover(nil, nil, pop[0], pop[1], &sub, &w.sc)
				want, _ = Crossover(pop[0], pop[1], plain)
			}
			if !cand.Equal(want) {
				t.Fatalf("step %d: memoized operator built %v, direct %v", i, cand, want)
			}
			rhos := SampleRhos(ctx)
			memoized := score(cand, ctx, rhos, &w.sc)
			direct := Score(cand, plain, rhos)
			if memoized != direct {
				t.Fatalf("step %d: memoized score %v != recomputed %v", i, memoized, direct)
			}
			pop[i%2] = cand
		}
		if w.sc.memo.hits == 0 || w.sc.memo.misses == 0 {
			t.Fatalf("memo saw %d hits and %d misses; the test does not exercise it", w.sc.memo.hits, w.sc.memo.misses)
		}
	})
	t.Run("second-context", func(t *testing.T) {
		for _, par := range []int{1, 2} {
			topo := cluster.Uniform(2, 4)
			first := testCtx(5, 8, topo)
			second := testCtx(5, 8, topo)
			base := second.Throughput
			second.Throughput = func(j cluster.JobID, B, c, servers int) float64 { return 2 * base(j, B, c, servers) }
			e := NewEngine(6, 0.3)
			e.Parallelism = par
			// Score against the distribution means, which the check below
			// can reproduce without the round's draws.
			e.DisableSampling = true
			for round, ctx := range []*Context{first, second, second} {
				e.Iterate(ctx)
				checkRoundScores(t, e, ctx, fmt.Sprintf("parallelism %d, round %d", par, round))
			}
		}
	})
}

// checkRoundScores checks every score of e's last round against Score
// under a bare copy of ctx. A candidate the round kept has left its slot
// for the population, at the rank Engine.order gives it.
func checkRoundScores(t *testing.T, e *Engine, ctx *Context, where string) {
	t.Helper()
	plain := &Context{Topo: ctx.Topo, Jobs: ctx.Jobs, Throughput: ctx.Throughput}
	rhos := e.progressDraws(ctx)
	n := len(e.pop) + 3*e.K
	genome := append([]*cluster.Schedule(nil), e.cands[:n]...)
	for rank, s := range e.pop {
		genome[e.order[rank]] = s
	}
	for i, s := range genome {
		if want := Score(s, plain, rhos); e.scores[i] != want {
			t.Fatalf("%s: candidate %d scored %v, want %v under the round's Context", where, i, e.scores[i], want)
		}
	}
}

// sparseSchedule builds a random genome on a random ragged topology whose
// jobs interleave non-contiguously and carry sparse, large IDs: the
// inputs on which the load and reorder scans from the previous slot's hit
// have to fall back to a full search.
func sparseSchedule(rng *rand.Rand) *cluster.Schedule {
	specs := make([]cluster.ServerSpec, 1+rng.Intn(8))
	for i := range specs {
		specs[i] = cluster.ServerSpec{GPUs: 1 + rng.Intn(8)}
	}
	s := cluster.NewSchedule(cluster.Topology{Servers: specs})
	ids := make([]cluster.JobID, 1+rng.Intn(40))
	for i := range ids {
		ids[i] = cluster.JobID(1_000_000 + rng.Intn(1<<30))
	}
	for g := 0; g < s.NumGPUs(); g++ {
		if rng.Float64() < 0.25 {
			continue // leave idle
		}
		s.SetSlot(cluster.GPUID(g), ids[rng.Intn(len(ids))], 1+rng.Intn(512))
	}
	return s
}

// TestLoadMatchesScheduleQueriesProperty pins the one-pass aggregates
// against the per-job Schedule queries they replace: the running jobs in
// first-occurrence order with their c, B and server span, each job's GPU
// list as gather collects it, and the idle list. One scratch is reused
// throughout, so state left over from a previous genome would show.
func TestLoadMatchesScheduleQueriesProperty(t *testing.T) {
	sc := new(evalScratch)
	f := func(seed int64) bool {
		s := sparseSchedule(rand.New(rand.NewSource(seed)))
		sc.load(s, loadIdle)
		jobs := s.RunningJobs()
		if len(sc.aggs) != len(jobs) {
			t.Logf("%d aggregates for %d running jobs", len(sc.aggs), len(jobs))
			return false
		}
		for i, j := range jobs {
			a := &sc.aggs[i]
			if a.id != j || a.c != s.GPUCount(j) || a.B != s.GlobalBatch(j) || a.servers != s.ServersOf(j) {
				t.Logf("aggregate %d = %+v, want job %d c=%d B=%d servers=%d",
					i, *a, j, s.GPUCount(j), s.GlobalBatch(j), s.ServersOf(j))
				return false
			}
			if got, want := fmt.Sprint(sc.gather(s, j)), fmt.Sprint(s.GPUsOf(j)); got != want {
				t.Logf("job %d GPUs = %s, want %s", j, got, want)
				return false
			}
			if got := sc.find(j, len(jobs)-1-i); got != i {
				t.Logf("find(%d) = %d, want %d", j, got, i)
				return false
			}
		}
		if got, want := fmt.Sprint(sc.idle), fmt.Sprint(s.IdleGPUs()); got != want {
			t.Logf("idle = %s, want %s", got, want)
			return false
		}
		return sc.find(cluster.NoJob, 0) == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReorderPacksByFirstOccurrence(t *testing.T) {
	// Mirrors Figure 10: [3 1 2 2 2 1] reorders to [3 1 1 2 2 2].
	s := cluster.NewSchedule(cluster.Uniform(1, 6))
	vals := []struct {
		j cluster.JobID
		b int
	}{{3, 4}, {1, 8}, {2, 2}, {2, 2}, {2, 2}, {1, 8}}
	for i, v := range vals {
		s.SetSlot(cluster.GPUID(i), v.j, v.b)
	}
	new(evalScratch).reorder(s)
	wantJobs := []cluster.JobID{3, 1, 1, 2, 2, 2}
	for i, w := range wantJobs {
		if got := s.Slot(cluster.GPUID(i)).Job; got != w {
			t.Fatalf("after reorder slot %d = job %d, want %d (%v)", i, got, w, s)
		}
	}
	for _, j := range []cluster.JobID{1, 2, 3} {
		if got := s.Fragments(j); got != 1 {
			t.Errorf("after reorder Fragments(%d) = %d, want 1", j, got)
		}
	}
}

// TestReorderPreservesPerJobTotalsProperty checks that reorder keeps every
// job's GPU count and global batch and leaves each job in one contiguous
// span. One scratch is reused throughout, so state left over from a
// previous genome would show.
func TestReorderPreservesPerJobTotalsProperty(t *testing.T) {
	sc := new(evalScratch)
	f := func(seed int64) bool {
		s := sparseSchedule(rand.New(rand.NewSource(seed)))
		before := make(map[cluster.JobID][2]int)
		for _, j := range s.RunningJobs() {
			before[j] = [2]int{s.GlobalBatch(j), s.GPUCount(j)}
		}
		idleBefore := s.NumIdle()
		sc.reorder(s)
		if s.Validate() != nil || s.NumIdle() != idleBefore {
			return false
		}
		for j, w := range before {
			if s.GlobalBatch(j) != w[0] || s.GPUCount(j) != w[1] {
				return false
			}
		}
		for _, j := range s.RunningJobs() {
			if s.Fragments(j) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// reorderReference is the map-based reorder that the hash-free scan
// replaced, kept as the oracle for TestReorderMatchesMapReferenceProperty.
func reorderReference(s *cluster.Schedule) {
	slots := s.Slots()
	next := make(map[cluster.JobID]int)
	var order []cluster.JobID
	for _, sl := range slots {
		if sl.Idle() {
			continue
		}
		if _, ok := next[sl.Job]; !ok {
			order = append(order, sl.Job)
		}
		next[sl.Job]++
	}
	idx := 0
	for _, j := range order {
		n := next[j]
		next[j] = idx
		idx += n
	}
	old := append([]cluster.Slot(nil), slots...)
	for _, sl := range old {
		if sl.Idle() {
			continue
		}
		slots[next[sl.Job]] = sl
		next[sl.Job]++
	}
	for ; idx < len(slots); idx++ {
		slots[idx] = cluster.Slot{Job: cluster.NoJob}
	}
}

// TestReorderMatchesMapReferenceProperty pins reorder slot for slot —
// order, job and local batch — against the map-based reference, and pins
// the aggregates it leaves against load's on the reordered genome: the
// same jobs in the same order with the same c, B and server span. Each
// random genome is reordered twice, the second time already packed, which
// reorder must leave unchanged. One scratch is reused throughout.
func TestReorderMatchesMapReferenceProperty(t *testing.T) {
	sc, ref := new(evalScratch), new(evalScratch)
	f := func(seed int64) bool {
		s := sparseSchedule(rand.New(rand.NewSource(seed)))
		want := s.Clone()
		reorderReference(want)
		for pass := 0; pass < 2; pass++ {
			sc.reorder(s)
			if !s.Equal(want) {
				t.Logf("pass %d: reorder = %v\nreference = %v", pass, s, want)
				return false
			}
			ref.load(s, loadAggs)
			if len(sc.aggs) != len(ref.aggs) {
				t.Logf("pass %d: reorder left %d aggregates, load finds %d", pass, len(sc.aggs), len(ref.aggs))
				return false
			}
			for i, a := range sc.aggs {
				r := ref.aggs[i]
				if a.id != r.id || a.c != r.c || a.B != r.B || a.servers != r.servers {
					t.Logf("pass %d: aggregate %d = %+v, load has %+v", pass, i, a, r)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestIterateAllocs pins the allocations of one evolution round on
// BenchmarkIterate's context at Parallelism 1. Allocation counts do not
// depend on the machine, so the bound is exact: a change that allocates
// more per round must raise it on purpose.
func TestIterateAllocs(t *testing.T) {
	const maxAllocs = 40
	e, ctx := iterateBench()
	e.Parallelism = 1
	if got := testing.AllocsPerRun(20, func() { e.Iterate(ctx) }); got > maxAllocs {
		t.Errorf("one Iterate round allocates %v times, want at most %d", got, maxAllocs)
	}
}

// TestScoreAllocs pins BenchmarkScore's operation at zero allocations:
// a warm worker scores a candidate from its memo and scratch alone.
func TestScoreAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, scoreBench()); got != 0 {
		t.Errorf("one score allocates %v times, want 0", got)
	}
}
