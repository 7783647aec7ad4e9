package ones_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/pkg/ones"
)

// goldenCases are quick-scale sessions whose public Result bytes
// testdata/results.golden pins: topologies and shapes away from the
// default, both ways of setting the trace seed, the stochastic rack-drain
// process alone, composed and under a controller, a planned rack drain
// and a run with its event log. Each runs under its baseline scheduler
// (Run) and under ONES (Compare).
var goldenCases = []struct {
	name     string
	baseline string
	opts     []ones.Option
	churn    bool // the baseline run must apply a capacity event
	drains   bool // … and evict a job by draining a rack
}{
	{"default", "fifo", nil, false, false},
	{"topology-8x8", "tiresias", []ones.Option{ones.WithTopology(8, 8)}, false, false},
	{"shape-2x8,2x4", "fifo", []ones.Option{ones.WithShape("2x8,2x4")}, false, false},
	{"shape-4x4,2x8,1x4", "optimus", []ones.Option{ones.WithShape("4x4, 2x8, 1x4")}, false, false},
	{"seed-7", "drl", []ones.Option{ones.WithSeed(7)}, false, false},
	{"seed-7-trace-3", "tiresias", []ones.Option{ones.WithSeed(7), ones.WithTrace(ones.Trace{Seed: 3})}, false, false},
	{"mtbf-drain", "tiresias", drainOpts("mtbf-drain"), true, true},
	{"diurnal+mtbf-drain", "fifo", drainOpts("diurnal+mtbf-drain"), true, true},
	{"node-failure+mtbf-drain", "optimus", drainOpts("node-failure+mtbf-drain"), true, true},
	{"mtbf-drain/reactive-aggressive", "tiresias", append(drainOpts("mtbf-drain"), ones.WithAutoscaler("reactive-aggressive")), true, true},
	{"rack-drain", "fifo", []ones.Option{ones.WithShape("4x4,4x4"), ones.WithScenario("rack-drain")}, true, true},
	{"spot/event-log", "tiresias", []ones.Option{ones.WithScenario("spot"), ones.WithEventLog(true)}, true, false},
}

// drainOpts runs a scenario on a two-rack shape with a trace long enough
// for the mtbf-drain process to fire inside the makespan.
func drainOpts(scenarioName string) []ones.Option {
	return []ones.Option{
		ones.WithShape("4x4,4x4"),
		ones.WithScenario(scenarioName),
		ones.WithTrace(ones.Trace{Jobs: 90, MeanInterarrival: 50}),
	}
}

// TestResultsGolden: each golden session's Result marshals to the bytes
// whose SHA-256 testdata/results.golden records, one "<case>/<scheduler>
// <hex>" line each. A mismatch prints the session and its JSON.
func TestResultsGolden(t *testing.T) {
	want := readGolden(t, "testdata/results.golden")
	ctx := context.Background()
	var got []string
	for _, tc := range goldenCases {
		s, err := ones.New(append([]ones.Option{ones.WithQuickScale(), ones.WithScheduler(tc.baseline)}, tc.opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		base, err := s.Run(ctx)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.name, tc.baseline, err)
		}
		if tc.churn && base.CapacityEvents == 0 || tc.drains && base.RackDrainEvictions == 0 {
			t.Errorf("%s/%s: %d capacity events, %d rack-drain evictions; the case pins too little of the capacity path",
				tc.name, tc.baseline, base.CapacityEvents, base.RackDrainEvictions)
		}
		paired, err := s.Compare(ctx, "ones")
		if err != nil {
			t.Fatalf("%s/ones: %v", tc.name, err)
		}
		for _, res := range []struct {
			sched string
			r     *ones.Result
		}{{tc.baseline, base}, {"ones", paired[0]}} {
			b, err := json.Marshal(res.r)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			id, digest := tc.name+"/"+res.sched, hex.EncodeToString(sum[:])
			got = append(got, id+" "+digest)
			if want[id] != digest {
				t.Errorf("session %s under %s: sha256 %s, want %q\nJSON: %s", tc.name, res.sched, digest, want[id], b)
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d lines, the cases produce %d", len(want), len(got))
	}
	if t.Failed() {
		t.Logf("digests of this build:\n%s", strings.Join(got, "\n"))
	}
}

// readGolden parses "<id> <hex>" lines into a map (empty when the file
// is missing, so every case reports its digest).
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[id] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
