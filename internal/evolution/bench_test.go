package evolution

import (
	"testing"

	"repro/internal/cluster"
)

// BenchmarkIterate measures one full evolution round — candidate
// generation with all four operators, scoring and selection — on a 32-GPU
// cluster with 12 alive jobs and population 16. allocs/op makes the
// reuse of workers and candidate slots visible in the benchmark
// trajectory; TestIterateAllocs pins it.
func BenchmarkIterate(b *testing.B) {
	e, ctx := iterateBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Iterate(ctx)
	}
}

// iterateBench returns BenchmarkIterate's engine and context, after one
// round that warms the population, workers and candidate slots.
func iterateBench() (*Engine, *Context) {
	ctx := testCtx(42, 12, cluster.Uniform(8, 4))
	e := NewEngine(16, 0.2)
	e.Iterate(ctx)
	return e, ctx
}

// BenchmarkScore measures the SRUF objective on one candidate via the
// one-pass aggregate load and a worker's throughput memo, on one reused
// scratch. Iterate's workers score from reorder's aggregates instead of
// loading; the ablation without reorder takes this path. TestScoreAllocs
// pins its allocs/op.
func BenchmarkScore(b *testing.B) {
	scoreOnce := scoreBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoreOnce()
	}
}

// scoreBench returns BenchmarkScore's operation, one score of a fixed
// candidate on a 32-GPU cluster with 12 alive jobs, after a call that
// warms the memo and the scratch.
func scoreBench() func() {
	topo := cluster.Uniform(8, 4)
	ctx := testCtx(42, 12, topo)
	s := Refresh(cluster.NewSchedule(topo), ctx)
	rhos := SampleRhos(ctx)
	sc := &newWorker().sc
	scoreOnce := func() { score(s, ctx, rhos, sc) }
	scoreOnce()
	return scoreOnce
}
