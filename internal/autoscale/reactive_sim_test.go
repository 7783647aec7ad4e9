package autoscale

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// fifoSched is a minimal FIFO gang scheduler local to this package so
// the closed loop can be exercised without importing internal/schedulers.
type fifoSched struct{}

func (fifoSched) Traits() simulator.Traits {
	return simulator.Traits{Name: "fifo-test", ManagesLR: true}
}
func (fifoSched) Decide(tr simulator.Trigger, v *simulator.View) *cluster.Schedule {
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

func reactiveRun(t *testing.T, policy string) *simulator.Result {
	t.Helper()
	trace, err := workload.Generate(workload.Config{Seed: 3, NumJobs: 24, MeanInterarrival: 8, MaxReqGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulator.DefaultConfig(trace)
	cfg.Topo = cluster.Uniform(4, 4) // small on purpose: the arrival burst must overload it
	cfg.MinServers = 2
	cfg.Source = NewController(mustGet(t, policy), 42, nil)
	res, err := simulator.Run(cfg, fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The closed loop, end to end: a tight cluster overloads, the
// controller grows it, the queue drains, the controller shrinks it —
// with no pre-planned timeline anywhere.
func TestControllerClosesTheLoop(t *testing.T) {
	res := reactiveRun(t, ReactiveAggressive)
	if res.ScaleUps == 0 {
		t.Errorf("overloaded run produced no scale-ups: %+v", summary(res))
	}
	if res.ScaleDowns == 0 {
		t.Errorf("drained run produced no scale-downs: %+v", summary(res))
	}
	if res.AutoscaleEvents != res.ScaleUps+res.ScaleDowns {
		t.Errorf("AutoscaleEvents %d != ups %d + downs %d", res.AutoscaleEvents, res.ScaleUps, res.ScaleDowns)
	}
	if res.CapacityEvents < res.AutoscaleEvents {
		t.Errorf("CapacityEvents %d < AutoscaleEvents %d", res.CapacityEvents, res.AutoscaleEvents)
	}
	if res.Truncated {
		t.Errorf("reactive run truncated with %d unfinished", res.Unfinished)
	}
}

// A reactive run must be byte-identical on rerun: the controller's only
// state is seeded or derived from the (deterministic) observation
// sequence.
func TestReactiveRunDeterministic(t *testing.T) {
	for _, policy := range []string{ReactiveConservative, ReactiveAggressive, ReactiveEmergency} {
		a, b := reactiveRun(t, policy), reactiveRun(t, policy)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: reruns differ:\n%+v\nvs\n%+v", policy, summary(a), summary(b))
		}
	}
}

func summary(r *simulator.Result) map[string]any {
	return map[string]any{
		"ups": r.ScaleUps, "downs": r.ScaleDowns, "events": r.CapacityEvents,
		"makespan": r.Makespan, "meanJCT": r.MeanJCT(),
	}
}
