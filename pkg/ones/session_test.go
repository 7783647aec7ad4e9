package ones

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// quickSession builds a small, fast session; extra options append.
func quickSession(t *testing.T, extra ...Option) *Session {
	t.Helper()
	opts := append([]Option{
		WithScheduler("fifo"),
		WithTopology(4, 4),
		WithTrace(Trace{Jobs: 10, MeanInterarrival: 25, MaxGPUs: 4}),
		WithSeed(3),
		WithPopulation(6),
	}, extra...)
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsUnknownScheduler(t *testing.T) {
	_, err := New(WithScheduler("no-such-policy"))
	if !errors.Is(err, ErrUnknownScheduler) {
		t.Fatalf("err = %v, want ErrUnknownScheduler", err)
	}
	if !strings.Contains(err.Error(), "ones") || !strings.Contains(err.Error(), "tiresias") {
		t.Errorf("error does not list known schedulers: %v", err)
	}
}

func TestNewRejectsUnknownScenario(t *testing.T) {
	for _, name := range []string{"no-such-world", "diurnal+no-such-world"} {
		_, err := New(WithScenario(name))
		if !errors.Is(err, ErrUnknownScenario) {
			t.Fatalf("WithScenario(%q): err = %v, want ErrUnknownScenario", name, err)
		}
	}
}

func TestNewRejectsIncompatibleComposition(t *testing.T) {
	// Two arrival processes cannot merge.
	_, err := New(WithScenario("diurnal+burst"))
	if !errors.Is(err, ErrIncompatibleScenarios) {
		t.Fatalf("err = %v, want ErrIncompatibleScenarios", err)
	}
}

func TestNewRejectsBadOptionValues(t *testing.T) {
	for name, opt := range map[string]Option{
		"negative workers":   WithWorkers(-1),
		"zero topology":      WithTopology(0, 4),
		"oversized topology": WithTopology(2_000_000_000, 8),
		"negative trace":     WithTrace(Trace{Jobs: -1}),
		"mutation rate > 1":  WithMutationRate(1.5),
		"zero capacity":      WithCapacities(16, 0),
		"negative populace":  WithPopulation(-2),
		"oversized trace":    WithTrace(Trace{Jobs: 1 << 30}),
		"oversized search":   WithPopulation(100_000_000),
	} {
		if _, err := New(opt); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	res, err := quickSession(t).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "FIFO" || res.Scenario != "steady" || res.Capacity != 16 {
		t.Errorf("result coordinates wrong: %s/%s/%d", res.Scheduler, res.Scenario, res.Capacity)
	}
	if len(res.Jobs) != 10 || res.Truncated {
		t.Fatalf("run incomplete: %d jobs, truncated %v", len(res.Jobs), res.Truncated)
	}
	if res.MeanJCT <= 0 || res.Makespan <= 0 || res.Utilization <= 0 {
		t.Errorf("summary metrics empty: %+v", res)
	}
	if res.JCT.Max < res.JCT.Median || res.JCT.Median < res.JCT.Min {
		t.Errorf("JCT distribution disordered: %+v", res.JCT)
	}
	if len(res.Events) != 0 {
		t.Errorf("event log recorded without WithEventLog")
	}
}

func TestRunRecordsEventLog(t *testing.T) {
	res, err := quickSession(t, WithEventLog(true)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("no events recorded under WithEventLog(true)")
	}
	kinds := map[string]bool{}
	for _, ev := range res.Events {
		kinds[ev.Kind] = true
	}
	if !kinds["arrive"] || !kinds["complete"] {
		t.Errorf("event log missing basic kinds: %v", kinds)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	res, err := quickSession(t).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scheduler != res.Scheduler || len(back.Jobs) != len(res.Jobs) || back.MeanJCT != res.MeanJCT {
		t.Errorf("JSON round trip lost data: %+v vs %+v", back, res)
	}
	if !strings.Contains(string(data), `"mean_jct_s"`) {
		t.Errorf("JSON field names unstable: %s", data)
	}
}

func TestCompareIsPairedAndOrdered(t *testing.T) {
	s := quickSession(t)
	results, err := s.Compare(context.Background(), "sjf", "fifo")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Scheduler != "SJF" || results[1].Scheduler != "FIFO" {
		t.Fatalf("results out of argument order: %v", results)
	}
	if len(results[0].Jobs) != len(results[1].Jobs) {
		t.Error("job counts differ across paired runs")
	}
	if _, err := s.Compare(context.Background(), "fifo", "bogus"); !errors.Is(err, ErrUnknownScheduler) {
		t.Errorf("Compare with unknown scheduler: %v, want ErrUnknownScheduler", err)
	}
}

func TestRunMemoizes(t *testing.T) {
	s := quickSession(t)
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.SimulatedCells(); got != 1 {
		t.Errorf("SimulatedCells = %d after two identical Runs, want 1", got)
	}
}

func TestRunExperimentUnknownName(t *testing.T) {
	s := quickSession(t)
	_, err := s.RunExperiment(context.Background(), "fig999")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("err = %v, want ErrUnknownExperiment", err)
	}
}

func TestRunExperimentRenders(t *testing.T) {
	s, err := New(WithQuickScale(), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.RunExperiment(context.Background(), "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 2") {
		t.Errorf("fig2 output malformed:\n%s", out)
	}
}

func TestEnumerations(t *testing.T) {
	scheds := Schedulers()
	if len(scheds) < 6 {
		t.Errorf("Schedulers() = %v", scheds)
	}
	if got := PaperSchedulers(); len(got) != 4 || got[0] != "ones" {
		t.Errorf("PaperSchedulers() = %v", got)
	}
	scens := Scenarios()
	if len(scens) < 7 {
		t.Errorf("Scenarios() = %v", scens)
	}
	sawElastic := false
	for _, sc := range scens {
		if sc.Name == "" || sc.Title == "" || sc.Arrival == "" {
			t.Errorf("scenario info incomplete: %+v", sc)
		}
		sawElastic = sawElastic || sc.ElasticCapacity
	}
	if !sawElastic {
		t.Error("no scenario reports elastic capacity")
	}
	exps := Experiments()
	if len(exps) < 13 || exps[0].Name != "fig2" {
		t.Errorf("Experiments() = %v", exps)
	}
}

func TestScenarioRunThroughSDK(t *testing.T) {
	s := quickSession(t, WithScenario("node-failure"))
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "node-failure" {
		t.Errorf("Scenario = %q", res.Scenario)
	}
	if res.CapacityEvents == 0 {
		t.Error("node-failure scenario applied no capacity events")
	}
}

func TestGenerateTraceAndDecode(t *testing.T) {
	tr, err := GenerateTrace(Trace{Jobs: 25, Seed: 9}, "burst")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Jobs() != 25 {
		t.Fatalf("Jobs = %d", tr.Jobs())
	}
	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	sum := back.Summary()
	if sum.Jobs != 25 || sum.MeanGPUReq <= 0 || len(sum.ByClass) == 0 {
		t.Errorf("summary incomplete: %+v", sum)
	}
	if _, err := GenerateTrace(Trace{Jobs: 5}, "bogus"); !errors.Is(err, ErrUnknownScenario) {
		t.Errorf("GenerateTrace with unknown scenario: %v", err)
	}
}
