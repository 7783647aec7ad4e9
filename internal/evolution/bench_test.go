package evolution

import (
	"testing"

	"repro/internal/cluster"
)

// BenchmarkIterate measures one full evolution round — candidate
// generation with all four operators plus selection — on a 32-GPU
// cluster with 12 alive jobs and population 16. allocs/op makes the
// reuse of workers and candidate slots visible in the benchmark
// trajectory.
func BenchmarkIterate(b *testing.B) {
	topo := cluster.Uniform(8, 4)
	ctx := testCtx(42, 12, topo)
	e := NewEngine(16, 0.2)
	e.Iterate(ctx) // warm population, workers, candidate slots and memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Iterate(ctx)
	}
}

// BenchmarkScore measures the SRUF objective on one candidate via the
// one-pass aggregate load and the memoized throughput path, on one reused
// scratch as every Iterate worker scores.
func BenchmarkScore(b *testing.B) {
	topo := cluster.Uniform(8, 4)
	ctx := testCtx(42, 12, topo)
	ctx.prepare()
	s := Refresh(cluster.NewSchedule(topo), ctx)
	rhos := SampleRhos(ctx)
	sc := new(evalScratch)
	score(s, ctx, rhos, sc) // warm the memo and the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score(s, ctx, rhos, sc)
	}
}
