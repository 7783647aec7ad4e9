package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got, err := percentile(xs, 0.9); err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if got, err := percentile(xs[:20], 0.5); err != nil || got != 90 {
		t.Fatalf("p50 of 81..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
}

// firstRequests returns the first n specs of a workload's timed sequence.
func firstRequests(w workload, seed int64, n int) []string {
	gen := w.request(seed)
	out := make([]string, n)
	for i := range out {
		out[i] = specKey(gen(i))
	}
	return out
}

func TestSequencesDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := firstRequests(w, 7, 600), firstRequests(w, 7, 600)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", w.name)
		}
		if reflect.DeepEqual(a, firstRequests(w, 8, 600)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.name)
		}
		if !reflect.DeepEqual(w.setup(7), w.setup(7)) {
			t.Errorf("%s: seed 7 gave two different set-ups", w.name)
		}
	}
}

func TestColdSequencesAreDistinctAndSkipWarmUps(t *testing.T) {
	for _, name := range []string{"ones-cold", "baseline-cold"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, sp := range w.setup(3) {
			seen[specKey(sp)] = true
		}
		// Run past the end of the pool: requests must stay distinct.
		for i, k := range firstRequests(w, 3, 5000) {
			if seen[k] {
				t.Fatalf("%s: request %d %s repeats a set-up or earlier request", name, i, k)
			}
			seen[k] = true
		}
	}
}

func TestZipfDeterministicAndSkewed(t *testing.T) {
	z := newZipf(warmKeys, warmZipfS)
	draw := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		out := make([]int, 20000)
		for i := range out {
			out[i] = z.draw(rng)
		}
		return out
	}
	a := draw(5)
	if !reflect.DeepEqual(a, draw(5)) {
		t.Fatal("seed 5 gave two different draws")
	}
	counts := make([]int, warmKeys)
	for _, r := range a {
		counts[r]++
	}
	// P(rank 0) / P(rank 3) = 4 at s = 1.
	if got := float64(counts[0]) / float64(counts[3]); got < 3.4 || got > 4.6 {
		t.Fatalf("rank 0 drawn %.2f× as often as rank 3, want about 4", got)
	}
	if counts[warmKeys-1] == 0 {
		t.Fatal("the coldest key was never drawn")
	}
}

func TestWarmCellsMixIsSeedIndependent(t *testing.T) {
	a, b := warmCells(1), warmCells(2)
	events := 0
	for r := range a {
		if a[r].Scheduler != b[r].Scheduler || a[r].Scenario != b[r].Scenario || a[r].RecordEvents != b[r].RecordEvents {
			t.Fatalf("rank %d: class differs between seeds: %+v vs %+v", r, a[r], b[r])
		}
		if a[r].RecordEvents {
			events++
		}
	}
	if events != warmKeys/8 {
		t.Fatalf("%d of %d cells record events, want %d", events, warmKeys, warmKeys/8)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 gave the same cells")
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Exp", "repro/internal/perfmodel.Throughput", "repro/internal/evolution.(*Context).Score"}, "perfmodel"},
		{[]string{"math/rand.(*Rand).Seed", "repro/internal/evolution.Iterate.func1"}, "evolution"},
		{[]string{"encoding/json.(*encodeState).marshal", "repro/pkg/ones/serve.writeJSON", "net/http.(*conn).serve"}, "serve"},
		{[]string{"runtime.mallocgc", "repro/pkg/ones.newResult"}, "ones"},
		{[]string{"repro/internal/schedulers.(*ONES).Decide[go.shape.int]", "repro/internal/simulator.RunContext"}, "schedulers"},
		{[]string{"io.ReadAll", "main.(*client).send"}, "bench"},
		{[]string{"syscall.Syscall", "net/http.(*response).finishRequest", "net/http.(*conn).serve"}, "serve"},
		{[]string{"syscall.Syscall", "net/http.(*persistConn).readLoop"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime.nanotime", "runtime.goexit"}, "unattributed"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	if !calls([]string{"encoding/json.Marshal", "repro/pkg/ones/serve.writeJSON"}, "encoding/json.") {
		t.Error("json called directly by serve not counted")
	}
	if calls([]string{"repro/pkg/ones.newResult", "encoding/json.Marshal"}, "encoding/json.") {
		t.Error("json frames outside the innermost repository frame counted")
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := range 1000 {
			x ^= i * x
		}
	}
	return x
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.ns
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.ns
				break
			}
		}
	}
	if total < int64(100*time.Millisecond) || inSpin < total/2 {
		t.Fatalf("profile has %v CPU, %v of it in spin; want most of ~300ms in spin", time.Duration(total), time.Duration(inSpin))
	}
}

func TestCovered(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	cases := []struct {
		in, out []interval
		want    time.Duration
	}{
		{[]interval{iv(0, 10)}, nil, 10 * time.Millisecond},
		{[]interval{iv(0, 10), iv(5, 15)}, nil, 15 * time.Millisecond},                    // overlap counted once
		{[]interval{iv(0, 10), iv(20, 30)}, []interval{iv(5, 25)}, 10 * time.Millisecond}, // 0-5 and 25-30
		{[]interval{iv(0, 10)}, []interval{iv(0, 10)}, 0},
	}
	for _, c := range cases {
		if got := covered(c.in, c.out); got != c.want {
			t.Errorf("covered(%v, %v) = %v, want %v", c.in, c.out, got, c.want)
		}
	}
}
