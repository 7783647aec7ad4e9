package servecache

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/schedulers"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// tiresiasResult runs the default 120-job trace under Tiresias on the
// 64-GPU cluster: a default-scale onesd cell. With events it keeps the
// full event log, the largest Result the cache stores.
func tiresiasResult(b testing.TB, events bool) *simulator.Result {
	b.Helper()
	wc := workload.DefaultConfig()
	trace, err := workload.Generate(wc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := schedulers.New("tiresias", schedulers.Config{Seed: 1, ArrivalRate: wc.ArrivalRate()})
	if err != nil {
		b.Fatal(err)
	}
	cfg := simulator.DefaultConfig(trace)
	cfg.RecordEvents = events
	res, err := simulator.Run(cfg, s)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkDiskHit measures a Do served from disk: one file read and one
// decode. Reset before each Do keeps the memo from answering instead.
func BenchmarkDiskHit(b *testing.B) {
	for _, tc := range []struct {
		name   string
		events bool
	}{{"jobs", false}, {"events", true}} {
		b.Run(tc.name, func(b *testing.B) {
			res := tiresiasResult(b, tc.events)
			c, err := New(b.TempDir(), func(string, ...any) {})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, err := c.Do(ctx, "cell", func() (*simulator.Result, error) { return res, nil }); err != nil {
				b.Fatal(err)
			}
			recompute := func() (*simulator.Result, error) {
				b.Fatal("recomputed a persisted cell")
				return nil, nil
			}
			b.ReportAllocs()
			for b.Loop() {
				c.Reset()
				if _, err := c.Do(ctx, "cell", recompute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemoInsertAtCap measures an insert into a full memory-only
// memo: each one evicts the least recently used entry.
func BenchmarkMemoInsertAtCap(b *testing.B) {
	res := &simulator.Result{}
	compute := func() (*simulator.Result, error) { return res, nil }
	for _, n := range []int{16, 1000, 10000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			c, err := New("", nil)
			if err != nil {
				b.Fatal(err)
			}
			c.SetLimits(Limits{MaxEntries: n})
			ctx := context.Background()
			for i := 0; i < n; i++ {
				if _, err := c.Do(ctx, strconv.Itoa(i), compute); err != nil {
					b.Fatal(err)
				}
			}
			next := n
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.Do(ctx, strconv.Itoa(next), compute); err != nil {
					b.Fatal(err)
				}
				next++
			}
		})
	}
}
