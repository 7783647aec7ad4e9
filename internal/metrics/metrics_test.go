package metrics

import (
	"strings"
	"testing"

	"repro/internal/simulator"
)

func fakeResult(name string, jcts, execs []float64) *simulator.Result {
	r := &simulator.Result{Scheduler: name}
	for i := range jcts {
		r.Jobs = append(r.Jobs, simulator.JobMetric{
			JCT:   jcts[i],
			Exec:  execs[i],
			Queue: jcts[i] - execs[i],
		})
	}
	return r
}

func TestSummarize(t *testing.T) {
	r := fakeResult("ONES", []float64{100, 200, 300}, []float64{80, 150, 250})
	s := Summarize(r)
	if s.Scheduler != "ONES" {
		t.Fatalf("summary header wrong: %+v", s)
	}
	if s.MeanJCT != 200 {
		t.Errorf("MeanJCT = %v", s.MeanJCT)
	}
	if s.MeanExec != 160 {
		t.Errorf("MeanExec = %v", s.MeanExec)
	}
	if s.MeanQueue != 40 {
		t.Errorf("MeanQueue = %v", s.MeanQueue)
	}
}

func TestValues(t *testing.T) {
	r := fakeResult("x", []float64{10, 20}, []float64{4, 8})
	if got := Values(r, JCT); got[0] != 10 || got[1] != 20 {
		t.Errorf("JCT values %v", got)
	}
	if got := Values(r, Exec); got[0] != 4 {
		t.Errorf("Exec values %v", got)
	}
	if got := Values(r, Queue); got[0] != 6 {
		t.Errorf("Queue values %v", got)
	}
}

func TestMetricString(t *testing.T) {
	if JCT.String() != "JCT" || Exec.String() != "execution time" ||
		Queue.String() != "queuing time" || Metric(9).String() != "unknown" {
		t.Error("metric names wrong")
	}
}

func TestComparisonTableShowsImprovement(t *testing.T) {
	sums := []Summary{
		Summarize(fakeResult("ONES", []float64{100, 100}, []float64{90, 90})),
		Summarize(fakeResult("Tiresias", []float64{200, 200}, []float64{150, 150})),
	}
	out := ComparisonTable(sums)
	if !strings.Contains(out, "ONES") || !strings.Contains(out, "Tiresias") {
		t.Fatalf("missing schedulers:\n%s", out)
	}
	if !strings.Contains(out, "−50.0%") {
		t.Errorf("expected 50%% improvement annotation:\n%s", out)
	}
}

func TestBoxTable(t *testing.T) {
	rs := []*simulator.Result{
		fakeResult("A", []float64{1, 2, 3, 4, 5}, []float64{1, 1, 1, 1, 1}),
	}
	out := BoxTable(rs, JCT)
	if !strings.Contains(out, "median") || !strings.Contains(out, "A") {
		t.Errorf("box table malformed:\n%s", out)
	}
}

func TestCFCurves(t *testing.T) {
	rs := []*simulator.Result{
		fakeResult("A", []float64{10, 100, 1000}, []float64{5, 50, 500}),
		fakeResult("B", []float64{20, 200, 2000}, []float64{5, 50, 500}),
	}
	curves := CFCurves(rs, JCT, 10)
	if len(curves) != 2 {
		t.Fatalf("got %d curves", len(curves))
	}
	for _, c := range curves {
		if len(c.X) != 10 || len(c.Y) != 10 {
			t.Fatalf("curve %s has %d/%d points", c.Scheduler, len(c.X), len(c.Y))
		}
		if c.Y[len(c.Y)-1] < c.Y[0] {
			t.Errorf("curve %s not nondecreasing", c.Scheduler)
		}
	}
	txt := RenderCF(curves)
	if !strings.Contains(txt, "A") || !strings.Contains(txt, "B") {
		t.Errorf("rendered CF missing headers:\n%s", txt)
	}
	if RenderCF(nil) == "" {
		t.Error("empty render should still say something")
	}
}

func TestCFCurvesDegenerate(t *testing.T) {
	rs := []*simulator.Result{fakeResult("A", []float64{0}, []float64{0})}
	if got := CFCurves(rs, JCT, 5); got != nil {
		t.Errorf("degenerate data should yield nil, got %v", got)
	}
}

func TestFractionWithin(t *testing.T) {
	r := fakeResult("x", []float64{100, 150, 250, 400}, []float64{0, 0, 0, 0})
	if got := FractionWithin(r, JCT, 200); got != 0.5 {
		t.Errorf("FractionWithin = %v, want 0.5", got)
	}
}

func TestSortSummariesONESFirst(t *testing.T) {
	sums := []Summary{{Scheduler: "Tiresias"}, {Scheduler: "DRL"}, {Scheduler: "ONES"}}
	SortSummaries(sums)
	if sums[0].Scheduler != "ONES" {
		t.Errorf("ONES not first: %v", sums)
	}
	if sums[1].Scheduler != "DRL" || sums[2].Scheduler != "Tiresias" {
		t.Errorf("rest not alphabetical: %+v", sums)
	}
}
