package simulator

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// fifoTest is a minimal FIFO gang scheduler local to the test package so
// the simulator can be exercised without importing internal/schedulers
// (which imports this package).
type fifoTest struct{ cost CostKind }

func (f *fifoTest) Traits() Traits {
	return Traits{Name: "fifo-test", Cost: f.cost, ManagesLR: true}
}
func (f *fifoTest) Decide(tr Trigger, v *View) *cluster.Schedule {
	s := v.Current.Clone()
	changed := false
	for _, j := range v.Jobs {
		if j.Running {
			continue
		}
		idle := s.IdleGPUs()
		if len(idle) < j.ReqGPUs {
			break
		}
		per := j.ReqBatch / j.ReqGPUs
		if per > j.Task.Profile.MaxPerGPU {
			per = j.Task.Profile.MaxPerGPU
		}
		if per < 1 {
			per = 1
		}
		for i := 0; i < j.ReqGPUs; i++ {
			s.SetSlot(idle[i], j.ID, per)
		}
		changed = true
	}
	if !changed {
		return nil
	}
	return s
}

func smallTrace(t *testing.T, n int) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.Config{Seed: 3, NumJobs: n, MeanInterarrival: 20, MaxReqGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func smallConfig(t *testing.T, n int) Config {
	t.Helper()
	cfg := DefaultConfig(smallTrace(t, n))
	cfg.Topo = cluster.Uniform(4, 4)
	return cfg
}

func TestRunCompletesAllJobs(t *testing.T) {
	cfg := smallConfig(t, 12)
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("simulation truncated with %d unfinished jobs", res.Unfinished)
	}
	if len(res.Jobs) != 12 {
		t.Fatalf("completed %d jobs, want 12", len(res.Jobs))
	}
}

func TestMetricsConsistency(t *testing.T) {
	cfg := smallConfig(t, 10)
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Jobs {
		if m.Done < m.Submit {
			t.Errorf("job %d done %v before submit %v", m.ID, m.Done, m.Submit)
		}
		if math.Abs(m.JCT-(m.Done-m.Submit)) > 1e-6 {
			t.Errorf("job %d JCT %v != done-submit %v", m.ID, m.JCT, m.Done-m.Submit)
		}
		if m.Exec < 0 || m.Queue < -1e-6 {
			t.Errorf("job %d negative components: exec %v queue %v", m.ID, m.Exec, m.Queue)
		}
		if math.Abs(m.JCT-(m.Exec+m.Queue)) > 1e-6 {
			t.Errorf("job %d JCT %v != exec %v + queue %v", m.ID, m.JCT, m.Exec, m.Queue)
		}
		if m.Start < m.Submit {
			t.Errorf("job %d started %v before submit %v", m.ID, m.Start, m.Submit)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := smallConfig(t, 8)
		res, err := Run(cfg, &fifoTest{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MeanJCT() != b.MeanJCT() || a.Makespan != b.Makespan {
		t.Errorf("nondeterministic: JCT %v vs %v, makespan %v vs %v",
			a.MeanJCT(), b.MeanJCT(), a.Makespan, b.Makespan)
	}
}

func TestCheckpointCostsSlowJobsDown(t *testing.T) {
	cfg := smallConfig(t, 8)
	cheap, err := Run(cfg, &fifoTest{cost: CostElastic})
	if err != nil {
		t.Fatal(err)
	}
	costly, err := Run(cfg, &fifoTest{cost: CostCheckpoint})
	if err != nil {
		t.Fatal(err)
	}
	if costly.MeanJCT() <= cheap.MeanJCT() {
		t.Errorf("checkpoint-mode mean JCT (%v) should exceed elastic (%v)",
			costly.MeanJCT(), cheap.MeanJCT())
	}
}

func TestRejectsEmptyTrace(t *testing.T) {
	cfg := DefaultConfig(&workload.Trace{})
	if _, err := Run(cfg, &fifoTest{}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestRejectsScheduleWithUnknownJob(t *testing.T) {
	cfg := smallConfig(t, 3)
	bad := &badScheduler{}
	if _, err := Run(cfg, bad); err == nil {
		t.Error("schedule referencing unknown job accepted")
	}
}

type badScheduler struct{}

func (b *badScheduler) Traits() Traits { return Traits{Name: "bad", ManagesLR: true} }
func (b *badScheduler) Decide(tr Trigger, v *View) *cluster.Schedule {
	s := v.Current.Clone()
	s.SetSlot(0, 9999, 64) // job 9999 does not exist
	return s
}

func TestRejectsOverMemoryBatch(t *testing.T) {
	cfg := smallConfig(t, 3)
	if _, err := Run(cfg, &overMemScheduler{}); err == nil {
		t.Error("schedule with over-memory local batch accepted")
	}
}

type overMemScheduler struct{}

func (o *overMemScheduler) Traits() Traits { return Traits{Name: "overmem", ManagesLR: true} }
func (o *overMemScheduler) Decide(tr Trigger, v *View) *cluster.Schedule {
	for _, j := range v.Jobs {
		if !j.Running {
			s := v.Current.Clone()
			s.SetSlot(0, j.ID, j.Task.Profile.MaxPerGPU*10)
			return s
		}
	}
	return nil
}

func TestIdleSchedulerTruncates(t *testing.T) {
	// A scheduler that never allocates leaves all jobs unfinished.
	cfg := smallConfig(t, 4)
	res, err := Run(cfg, &nilScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Unfinished != 4 {
		t.Errorf("expected 4 unfinished jobs, got truncated=%v unfinished=%d", res.Truncated, res.Unfinished)
	}
}

type nilScheduler struct{}

func (n *nilScheduler) Traits() Traits                               { return Traits{Name: "nil", ManagesLR: true} }
func (n *nilScheduler) Decide(tr Trigger, v *View) *cluster.Schedule { return nil }

func TestTickSchedulerGetsPeriodicCalls(t *testing.T) {
	cfg := smallConfig(t, 6)
	ts := &tickCounter{fifoTest: fifoTest{}}
	res, err := Run(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("truncated")
	}
	if ts.ticks == 0 {
		t.Error("tick scheduler never received a tick")
	}
}

type tickCounter struct {
	fifoTest
	ticks int
}

func (tc *tickCounter) Traits() Traits {
	t := tc.fifoTest.Traits()
	t.TickInterval = 60
	return t
}
func (tc *tickCounter) Decide(tr Trigger, v *View) *cluster.Schedule {
	if tr == TriggerTick {
		tc.ticks++
	}
	return tc.fifoTest.Decide(tr, v)
}

func TestTriggerString(t *testing.T) {
	names := map[Trigger]string{
		TriggerArrival:    "arrival",
		TriggerEpochEnd:   "epoch-end",
		TriggerCompletion: "completion",
		TriggerTick:       "tick",
		Trigger(42):       "unknown",
	}
	for tr, want := range names {
		if got := tr.String(); got != want {
			t.Errorf("Trigger(%d).String() = %q, want %q", tr, got, want)
		}
	}
}

func TestResultAggregates(t *testing.T) {
	r := &Result{Jobs: []JobMetric{
		{JCT: 10, Exec: 6, Queue: 4},
		{JCT: 20, Exec: 12, Queue: 8},
	}}
	if got := r.MeanJCT(); got != 15 {
		t.Errorf("MeanJCT = %v", got)
	}
	if got := r.MeanExec(); got != 9 {
		t.Errorf("MeanExec = %v", got)
	}
	if got := r.MeanQueue(); got != 6 {
		t.Errorf("MeanQueue = %v", got)
	}
	if got := r.JCTs(); len(got) != 2 || got[0] != 10 {
		t.Errorf("JCTs = %v", got)
	}
	empty := &Result{}
	if empty.MeanJCT() != 0 {
		t.Error("empty result mean should be 0")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	cfg := smallConfig(t, 8)
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %v outside (0,1]", u)
	}
	// Busy GPU-seconds must equal the sum over jobs of exec × GPUs held;
	// with fixed-size FIFO each job holds ReqGPUs for its whole exec time.
	var want float64
	byID := map[int]int{}
	for _, j := range cfg.Trace.Jobs {
		byID[j.ID] = j.ReqGPUs
	}
	for _, m := range res.Jobs {
		want += m.Exec * float64(byID[int(m.ID)])
	}
	if math.Abs(res.BusyGPUSeconds-want)/want > 1e-6 {
		t.Errorf("BusyGPUSeconds = %v, want %v", res.BusyGPUSeconds, want)
	}
	if (&Result{}).Utilization() != 0 {
		t.Error("empty result utilization should be 0")
	}
}

func TestEventLogRecordsLifecycle(t *testing.T) {
	cfg := smallConfig(t, 4)
	cfg.RecordEvents = true
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("no events recorded")
	}
	counts := map[EventKind]int{}
	prev := -1.0
	for _, ev := range res.Events {
		counts[ev.Kind]++
		if ev.Time < prev {
			t.Fatalf("event log out of order: %v after %v", ev.Time, prev)
		}
		prev = ev.Time
	}
	if counts[EventArrive] != 4 || counts[EventComplete] != 4 {
		t.Errorf("lifecycle counts wrong: %+v", counts)
	}
	if counts[EventStart] < 4 {
		t.Errorf("every job must start at least once: %+v", counts)
	}
	// Default config must not record.
	cfg2 := smallConfig(t, 2)
	res2, err := Run(cfg2, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Events) != 0 {
		t.Error("events recorded without RecordEvents")
	}
}

// failureTimeline removes one server shortly into the run and repairs it
// later — early enough that jobs are guaranteed to be holding GPUs.
func failureTimeline(fail, repair float64) []scenario.CapacityEvent {
	return []scenario.CapacityEvent{
		{Time: fail, Kind: scenario.CapacityFail, Servers: 1, Pick: 0.1},
		{Time: repair, Kind: scenario.CapacityJoin, Servers: 1, Restocks: scenario.CapacityFail},
	}
}

func TestNodeFailureEvictsAndRequeues(t *testing.T) {
	cfg := smallConfig(t, 12)
	cfg.RecordEvents = true
	// Three failures spread across the run, each repaired: jobs must be
	// evicted but every one of them still completes.
	cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
		{Time: 30, Kind: scenario.CapacityFail, Servers: 1, Pick: 0.0},
		{Time: 200, Kind: scenario.CapacityJoin, Servers: 1},
		{Time: 260, Kind: scenario.CapacityFail, Servers: 1, Pick: 0.5},
		{Time: 500, Kind: scenario.CapacityJoin, Servers: 1},
		{Time: 560, Kind: scenario.CapacityFail, Servers: 1, Pick: 0.9},
		{Time: 900, Kind: scenario.CapacityJoin, Servers: 1},
	})
	cfg.MinServers = 2
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Error("node failures under a loaded cluster must evict at least one job")
	}
	if res.Truncated || len(res.Jobs) != 12 {
		t.Fatalf("evicted jobs must requeue and complete: %d done, truncated=%v",
			len(res.Jobs), res.Truncated)
	}
	if res.CapacityEvents != 6 {
		t.Errorf("CapacityEvents = %d, want 6", res.CapacityEvents)
	}
	evicts, capEvents := 0, 0
	for _, ev := range res.Events {
		switch ev.Kind {
		case EventEvict:
			evicts++
		case EventCapacity:
			capEvents++
			if ev.GPUs <= 0 {
				t.Errorf("capacity event with nonpositive GPU total: %+v", ev)
			}
		}
	}
	if evicts != res.Evictions || capEvents != res.CapacityEvents {
		t.Errorf("event log (%d evicts, %d capacity) disagrees with counters (%d, %d)",
			evicts, capEvents, res.Evictions, res.CapacityEvents)
	}
}

func TestCapacityJoinGrowsCluster(t *testing.T) {
	// Start with 1 server: the trace's 4-GPU gangs can't run until the
	// join doubles the cluster.
	cfg := smallConfig(t, 6)
	cfg.Topo = cluster.Uniform(1, 4)
	cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
		{Time: 100, Kind: scenario.CapacityJoin, Servers: 3},
	})
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("join never reached the scheduler: %d unfinished", res.Unfinished)
	}
	if res.TotalGPUs != 4 {
		t.Errorf("TotalGPUs should report the initial capacity, got %d", res.TotalGPUs)
	}
	// The capacity integral must exceed the initial-capacity baseline:
	// 12 extra GPUs were online from t=100 to the makespan.
	base := res.Makespan * 4
	if res.CapacityGPUSeconds <= base {
		t.Errorf("CapacityGPUSeconds %v not above fixed-capacity baseline %v",
			res.CapacityGPUSeconds, base)
	}
	if u := res.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization %v outside (0,1]", u)
	}
}

func TestCapacityRemovalRespectsMinServers(t *testing.T) {
	cfg := smallConfig(t, 4)
	cfg.MinServers = 4 // equal to the starting size: removals are no-ops
	cfg.Source = scenario.NewTimelineSource(failureTimeline(20, 40))
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions != 0 {
		t.Errorf("removal below MinServers must be skipped, got %d evictions", res.Evictions)
	}
	if res.Truncated {
		t.Error("run truncated")
	}
	// The skipped failure's repair must be skipped too: a server that
	// never left cannot rejoin, so the world never actually changed.
	if res.CapacityEvents != 0 {
		t.Errorf("clamped timeline applied %d capacity events, want 0", res.CapacityEvents)
	}
	if want := res.Makespan * 16; math.Abs(res.CapacityGPUSeconds-want) > 1e-6 {
		t.Errorf("capacity integral %v, want fixed-size %v — phantom repair grew the cluster",
			res.CapacityGPUSeconds, want)
	}
}

func TestSameTimeCapacityEventsApplyInTimelineOrder(t *testing.T) {
	// A leave and a join at the identical timestamp: the validated
	// timeline order (leave first) must hold, so the capacity log reads
	// 12 GPUs then 20 — never 20 then 16.
	cfg := smallConfig(t, 3)
	cfg.RecordEvents = true
	cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
		{Time: 100, Kind: scenario.CapacityLeave, Servers: 1, Pick: 0.999},
		{Time: 100, Kind: scenario.CapacityJoin, Servers: 2},
	})
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	var gpus []int
	for _, ev := range res.Events {
		if ev.Kind == EventCapacity {
			gpus = append(gpus, ev.GPUs)
		}
	}
	if len(gpus) != 2 || gpus[0] != 12 || gpus[1] != 20 {
		t.Errorf("capacity sequence %v, want [12 20]", gpus)
	}
}

func TestRestockNeverExceedsWhatWasRemoved(t *testing.T) {
	// Two failures but only one can be removed (floor at 3 of 4
	// servers); both repairs fire, yet the cluster must end back at its
	// original size, not above it.
	cfg := smallConfig(t, 3)
	cfg.RecordEvents = true
	cfg.MinServers = 3
	cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
		{Time: 20, Kind: scenario.CapacityFail, Servers: 1, Pick: 0.1},
		{Time: 30, Kind: scenario.CapacityFail, Servers: 1, Pick: 0.1}, // clamped
		{Time: 60, Kind: scenario.CapacityJoin, Servers: 1, Restocks: scenario.CapacityFail},
		{Time: 70, Kind: scenario.CapacityJoin, Servers: 1, Restocks: scenario.CapacityFail}, // phantom
	})
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for _, ev := range res.Events {
		if ev.Kind == EventCapacity {
			last = ev.GPUs
		}
	}
	if last != 16 {
		t.Errorf("cluster ended at %d GPUs, want the original 16", last)
	}
	if res.CapacityEvents != 2 {
		t.Errorf("CapacityEvents = %d, want 2 (one real failure, one real repair)", res.CapacityEvents)
	}
}

func TestCapacityScenarioDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := smallConfig(t, 8)
		cfg.Source = scenario.NewTimelineSource(failureTimeline(25, 300))
		res, err := Run(cfg, &fifoTest{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MeanJCT() != b.MeanJCT() || a.Makespan != b.Makespan || a.Evictions != b.Evictions {
		t.Errorf("nondeterministic under capacity events: JCT %v vs %v, evictions %d vs %d",
			a.MeanJCT(), b.MeanJCT(), a.Evictions, b.Evictions)
	}
}

func TestCapacityTimelineMustBeSorted(t *testing.T) {
	cfg := smallConfig(t, 2)
	cfg.Source = scenario.NewTimelineSource([]scenario.CapacityEvent{
		{Time: 50, Kind: scenario.CapacityJoin},
		{Time: 10, Kind: scenario.CapacityFail},
	})
	if _, err := Run(cfg, &fifoTest{}); err == nil {
		t.Error("unsorted capacity timeline accepted")
	}
}

func TestEvictedJobAccruesQueueNotExec(t *testing.T) {
	cfg := smallConfig(t, 3)
	cfg.RecordEvents = true
	cfg.Source = scenario.NewTimelineSource(failureTimeline(15, 600))
	res, err := Run(cfg, &fifoTest{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Jobs {
		if math.Abs(m.JCT-(m.Exec+m.Queue)) > 1e-6 {
			t.Errorf("job %d JCT %v != exec %v + queue %v after eviction",
				m.ID, m.JCT, m.Exec, m.Queue)
		}
	}
}
