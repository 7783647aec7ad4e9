package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/simulator"
)

func quickRunner() *engine.Runner { return engine.NewRunner(engine.QuickParams()) }

// runExp renders one experiment as a session does: its declared cells
// resolve through r, and Run renders from their results.
func runExp(t *testing.T, r *engine.Runner, name string) string {
	t.Helper()
	e, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var res []*simulator.Result
	if e.Cells != nil {
		if res, err = r.Results(context.Background(), e.Cells(r.Params())); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out, err := e.Run(r.Params(), res)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

// TestByteIdenticalOutputAcrossWorkerCounts is the engine's determinism
// contract: the same master seed renders byte-identical experiment text
// at worker counts 1, 4 and GOMAXPROCS.
func TestByteIdenticalOutputAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the evolutionary comparison three times")
	}
	render := func(workers int) string {
		p := engine.QuickParams()
		p.Jobs = 12
		p.Population = 6
		p.Capacities = []int{16, 32}
		p.Workers = workers
		r := engine.NewRunner(p)
		var b strings.Builder
		for _, name := range []string{"fig15", "table4", "fig17", "fig18"} {
			b.WriteString(runExp(t, r, name))
		}
		return b.String()
	}
	baseline := render(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := render(workers); got != baseline {
			t.Errorf("workers=%d: output differs from workers=1\n--- workers=1\n%s\n--- workers=%d\n%s",
				workers, baseline, workers, got)
		}
	}
}

func TestRegistryHasEveryPaperExperiment(t *testing.T) {
	want := []string{"fig2", "fig3", "fig6", "table2", "table3", "fig13", "fig14",
		"fig15", "table4", "fig16", "fig17", "fig18", "scenario", "hetero", "reactive"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("%d experiments %v, want %d", len(got), got, len(want))
	}
	for i, name := range want {
		e := got[i]
		if e.Name != name {
			t.Errorf("order[%d] = %q, want %q", i, e.Name, name)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: untitled or without Run", name)
		}
		if g, err := Get(name); err != nil || g.Name != name {
			t.Errorf("Get(%q) = %q, %v", name, g.Name, err)
		}
	}
}

func TestGetWrapsErrUnknown(t *testing.T) {
	_, err := Get("fig999")
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("Get error does not wrap ErrUnknown: %v", err)
	}
	if !strings.Contains(err.Error(), "fig2, fig3") {
		t.Errorf("Get error does not list the known names: %v", err)
	}
}

func TestFig2Shape(t *testing.T) {
	out := runExp(t, quickRunner(), "fig2")
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "elastic") {
		t.Errorf("Fig2 output malformed:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got < 9 {
		t.Errorf("Fig2 has %d lines, want 8 worker rows", got)
	}
}

func TestFig3Shape(t *testing.T) {
	out := runExp(t, quickRunner(), "fig3")
	if !strings.Contains(out, "8 GPUs") {
		t.Errorf("Fig3 output malformed:\n%s", out)
	}
}

func TestFig6Runs(t *testing.T) {
	out := runExp(t, quickRunner(), "fig6")
	if !strings.Contains(out, "ci90-lo") {
		t.Errorf("Fig6 missing CI columns:\n%s", out)
	}
	if strings.Count(out, "\n") < 8 {
		t.Errorf("Fig6 too few prediction rows:\n%s", out)
	}
}

func TestTables(t *testing.T) {
	r := quickRunner()
	t2 := runExp(t, r, "table2")
	if strings.Count(t2, "\n") < 52 { // header + 50 rows
		t.Errorf("Table2 should list 50 tasks:\n%s", t2)
	}
	t3 := runExp(t, r, "table3")
	for _, name := range []string{"ONES", "DRL", "Tiresias", "Optimus"} {
		if !strings.Contains(t3, name) {
			t.Errorf("Table3 missing %s", name)
		}
	}
}

func TestFig13And14(t *testing.T) {
	r := quickRunner()
	f13 := runExp(t, r, "fig13")
	f14 := runExp(t, r, "fig14")
	if !strings.Contains(f13, "abrupt") || !strings.Contains(f14, "gradual") {
		t.Error("loss-curve titles wrong")
	}
}

func TestFig16QuickScale(t *testing.T) {
	rows, err := Fig16Rows(engine.QuickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("Fig16 rows = %d, want 7 models", len(rows))
	}
	for _, r := range rows {
		if r.ElasticMeasured <= 0 || r.CheckpointMeasured <= 0 {
			t.Errorf("%s: nonpositive measured overheads %+v", r.Model, r)
		}
		if r.CheckpointPaper < 5*r.ElasticPaper {
			t.Errorf("%s: calibrated checkpoint should dwarf elastic: %+v", r.Model, r)
		}
	}
	out := runExp(t, quickRunner(), "fig16")
	if !strings.Contains(out, "vgg16") {
		t.Errorf("Fig16 render missing models:\n%s", out)
	}
}

func TestScenarioSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the evolutionary scheduler across five scenarios")
	}
	p := engine.QuickParams()
	p.Jobs = 12
	p.Population = 6
	r := engine.NewRunner(p)
	out := runExp(t, r, "scenario")
	for _, want := range []string{"Scenario sweep", "steady", "diurnal", "burst",
		"spot", "node-failure", "evictions", "makespan", "ONES", "Tiresias"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario sweep output missing %q:\n%s", want, out)
		}
	}
	// The pure-capacity scenarios replay the steady job stream under every
	// scheduler; diurnal draws its own. The sweep's cells are cache hits.
	cells := scenarioCells(r.Params())
	results, err := r.Results(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	steady := jobStream(results[0]) // scenario-major cells, steady first
	if len(steady) == 0 {
		t.Fatal("the steady cell finished no jobs")
	}
	for i, c := range cells {
		got := jobStream(results[i])
		switch c.Scenario {
		case "steady", "spot", "node-failure":
			if !reflect.DeepEqual(got, steady) {
				t.Errorf("%v job stream %v, want steady's %v", c, got, steady)
			}
		case "diurnal":
			if reflect.DeepEqual(got, steady) {
				t.Errorf("%v replayed the steady job stream", c)
			}
		}
	}
}

// jobStream lists a result's jobs as "ID name submit", sorted: the job
// stream its cell's trace produced.
func jobStream(res *simulator.Result) []string {
	out := make([]string, len(res.Jobs))
	for i, j := range res.Jobs {
		out[i] = fmt.Sprintf("%d %s %v", j.ID, j.Name, j.Submit)
	}
	sort.Strings(out)
	return out
}

func TestFullPipelineQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick evolutionary comparison")
	}
	r := quickRunner()
	// Prewarm the declared cells exactly as cmd/experiments does, then
	// render: every simulation below must be a cache hit.
	var exps []engine.Experiment
	for _, name := range []string{"fig15", "table4", "fig17", "fig18"} {
		e, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	cells := engine.DeclaredCells(exps, r.Params())
	if _, err := r.Results(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	warmed := r.CachedCells()
	// 4 schedulers × capacities {16, 64}; the fig15 cells coincide with
	// the 64-GPU sweep column.
	if want := 4 * len(r.Params().Capacities); warmed != want {
		t.Errorf("prewarm ran %d cells, want %d (fig15/fig17 should share the 64-GPU runs)", warmed, want)
	}

	f15 := runExp(t, r, "fig15")
	for _, want := range []string{"Figure 15a", "cumulative frequency", "within 200 s"} {
		if !strings.Contains(f15, want) {
			t.Errorf("Fig15 output missing %q", want)
		}
	}
	t4 := runExp(t, r, "table4")
	if !strings.Contains(t4, "vs. ") {
		t.Errorf("Table4 malformed:\n%s", t4)
	}
	f17 := runExp(t, r, "fig17")
	f18 := runExp(t, r, "fig18")
	if !strings.Contains(f17, "GPUs") || !strings.Contains(f18, "1.00") {
		t.Errorf("scalability outputs malformed:\n%s\n%s", f17, f18)
	}
	if r.CachedCells() != warmed {
		t.Errorf("rendering ran %d extra cells past the prewarm", r.CachedCells()-warmed)
	}
}

// TestReactiveShape: the reactive sweep renders both scenarios, all four
// policy rows, and at least one cell where the closed loop actually
// scaled the fleet.
func TestReactiveShape(t *testing.T) {
	out := runExp(t, quickRunner(), "reactive")
	for _, want := range []string{"scenario diurnal", "scenario burst",
		"fixed-fleet", "conservative", "aggressive", "emergency", "scale up/dn"} {
		if !strings.Contains(out, want) {
			t.Errorf("reactive output missing %q:\n%s", want, out)
		}
	}
	// Every fixed-fleet row is 0/0; some reactive cell must not be.
	if got := strings.Count(out, " 0/0"); got >= 8*len(engine.PaperSchedulers()) {
		t.Errorf("no cell reports scale activity:\n%s", out)
	}
}
