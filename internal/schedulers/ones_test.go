package schedulers

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// makeView builds a minimal scheduler view for unit-testing ONES's
// decision plumbing without a full simulation.
func makeView(now float64, topo cluster.Topology, jobs []simulator.JobView, current *cluster.Schedule) *simulator.View {
	if current == nil {
		current = cluster.NewSchedule(topo)
	}
	return &simulator.View{
		Now:     now,
		Topo:    topo,
		Jobs:    jobs,
		Current: current,
		Throughput: func(id cluster.JobID, B, c, servers int) float64 {
			if B <= 0 || c <= 0 {
				return 0
			}
			// Simple concave throughput: diminishing returns per worker.
			return float64(B) / (0.01 + float64(B)*0.001/float64(c) + 0.02*float64(c))
		},
	}
}

func sampleJobView(id cluster.JobID) simulator.JobView {
	task := workload.Catalog()[0]
	return simulator.JobView{
		ID:       id,
		Submit:   0,
		Task:     task,
		ReqGPUs:  2,
		ReqBatch: 512,
	}
}

func TestONESFirstDecisionDeploysNewJob(t *testing.T) {
	o := NewONES(1, 1.0/12)
	o.PopulationSize = 4
	reg := obs.NewRegistry()
	o.Obs = reg
	topo := cluster.Uniform(1, 4)
	view := makeView(0, topo, []simulator.JobView{sampleJobView(0)}, nil)
	s := o.Decide(simulator.TriggerArrival, view)
	if s == nil {
		t.Fatal("first arrival produced no deployment")
	}
	if !s.IsRunning(0) {
		t.Errorf("new job not scheduled: %v", s)
	}
	// Start policy: a fresh job must fit a single GPU.
	if got := s.GPUCount(0); got != 1 {
		t.Errorf("fresh job got %d GPUs, Start policy says 1", got)
	}
	decisions, deployments := reg.CounterValue("ones_decisions_total"), reg.CounterValue("ones_deployments_total")
	if decisions != 1 || deployments != 1 {
		t.Errorf("decisions = %d, deployments = %d, want 1 and 1", decisions, deployments)
	}
}

func TestONESLimitDoublesAfterEpochs(t *testing.T) {
	o := NewONES(1, 1.0/12)
	o.PopulationSize = 4
	topo := cluster.Uniform(1, 4)
	jv := sampleJobView(0)
	view := makeView(0, topo, []simulator.JobView{jv}, nil)
	dep := o.Decide(simulator.TriggerArrival, view)
	if dep == nil {
		t.Fatal("no initial deployment")
	}

	// Simulate two completed epochs of the running job with short exec
	// time (no convoy penalty): the limit should double each epoch.
	jv.Running = true
	jv.GPUs = dep.GPUCount(0)
	jv.Batch = dep.GlobalBatch(0)
	start := o.jobs[0].limit
	jv.WallEpochs = 1
	jv.ExecTime = 10
	jv.Processed = int64(jv.Task.DatasetSize)
	o.Decide(simulator.TriggerEpochEnd, makeView(10, topo, []simulator.JobView{jv}, dep))
	afterOne := o.jobs[0].limit
	jv.WallEpochs = 2
	jv.Processed *= 2
	o.Decide(simulator.TriggerEpochEnd, makeView(20, topo, []simulator.JobView{jv}, dep))
	afterTwo := o.jobs[0].limit
	if afterOne != 2*start || afterTwo != 4*start {
		t.Errorf("limit progression %d -> %d -> %d, want doubling from %d",
			start, afterOne, afterTwo, start)
	}
}

func TestONESFinalizesCompletedJobsIntoPredictor(t *testing.T) {
	o := NewONES(1, 1.0/12)
	o.PopulationSize = 4
	topo := cluster.Uniform(1, 2)
	jv := sampleJobView(0)
	dep := o.Decide(simulator.TriggerArrival, makeView(0, topo, []simulator.JobView{jv}, nil))

	// Feed several epoch ends so the job accumulates log points.
	jv.Running = true
	jv.GPUs = 1
	jv.Batch = 256
	for e := 1; e <= 5; e++ {
		jv.WallEpochs = float64(e)
		jv.Processed = int64(e * jv.Task.DatasetSize)
		jv.ExecTime = float64(e * 20)
		jv.Accuracy = 0.1 * float64(e)
		o.Decide(simulator.TriggerEpochEnd, makeView(float64(e*20), topo, []simulator.JobView{jv}, dep))
	}
	// Job vanishes from the view: ONES must label its logs and refit.
	o.Decide(simulator.TriggerCompletion, makeView(120, topo, nil, cluster.NewSchedule(topo)))
	if o.Predictor().Fits() != 1 {
		t.Errorf("predictor fits = %d, want 1 after completion", o.Predictor().Fits())
	}
	if o.Predictor().TrainingSize() == 0 {
		t.Error("no training samples harvested from the completed job")
	}
	if _, tracked := o.jobs[0]; tracked {
		t.Error("completed job still tracked")
	}
}

func TestONESEpochGateBlocksMidEpochRedeploys(t *testing.T) {
	o := NewONES(1, 1.0/12)
	o.PopulationSize = 4
	topo := cluster.Uniform(1, 2)
	jv := sampleJobView(0)
	dep := o.Decide(simulator.TriggerArrival, makeView(0, topo, []simulator.JobView{jv}, nil))
	jv.Running = true
	jv.GPUs = dep.GPUCount(0)
	jv.Batch = dep.GlobalBatch(0)
	jv.WallEpochs = 0.4 // mid-epoch
	view := makeView(5, topo, []simulator.JobView{jv}, dep)
	if o.shouldDeploy(simulator.TriggerEpochEnd, view) {
		t.Error("mid-epoch epoch-end trigger passes the one-epoch gate")
	}
	if got := o.Decide(simulator.TriggerEpochEnd, view); got != nil {
		t.Error("mid-epoch epoch-end trigger should be gated")
	}
}

func TestDRLNeverPreempts(t *testing.T) {
	// Run a full small trace and assert no running job ever loses GPUs
	// before completing (Table 3: DRL cannot preempt).
	tr, _ := testTrace(t, 12, 4)
	d := NewDRL(3)
	cfg := simulator.DefaultConfig(tr)
	cfg.Topo = cluster.Uniform(2, 4)
	watch := &preemptionWatcher{inner: d, alloc: map[cluster.JobID]int{}}
	res, err := simulator.Run(cfg, watch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("truncated")
	}
	if watch.preempted {
		t.Error("DRL preempted a running job")
	}
}

// preemptionWatcher wraps a scheduler and flags any deployment that
// shrinks a running job to zero GPUs.
type preemptionWatcher struct {
	inner     simulator.Scheduler
	alloc     map[cluster.JobID]int
	preempted bool
}

func (w *preemptionWatcher) Name() string                 { return w.inner.Name() }
func (w *preemptionWatcher) TickInterval() float64        { return w.inner.TickInterval() }
func (w *preemptionWatcher) CostKind() simulator.CostKind { return w.inner.CostKind() }
func (w *preemptionWatcher) ManagesLR() bool              { return w.inner.ManagesLR() }
func (w *preemptionWatcher) Decide(tr simulator.Trigger, v *simulator.View) *cluster.Schedule {
	s := w.inner.Decide(tr, v)
	if s != nil {
		alive := map[cluster.JobID]bool{}
		for _, j := range v.Jobs {
			alive[j.ID] = true
		}
		for id, had := range w.alloc {
			if alive[id] && had > 0 && s.GPUCount(id) == 0 {
				w.preempted = true
			}
		}
		for id := range w.alloc {
			delete(w.alloc, id)
		}
		for _, j := range v.Jobs {
			w.alloc[j.ID] = s.GPUCount(j.ID)
		}
	}
	return s
}

func TestTiresiasPreemptsForHigherPriority(t *testing.T) {
	tires := NewTiresias()
	topo := cluster.Uniform(1, 4)
	// An old job with huge attained service fills the cluster; a new job
	// arrives. Tiresias must evict the old one (queue 1) for the new
	// (queue 0).
	old := sampleJobView(0)
	old.Running = true
	old.GPUs = 4
	old.Batch = 1024
	old.ExecTime = 99999
	old.Submit = 0
	old.ReqGPUs = 4
	fresh := sampleJobView(1)
	fresh.Submit = 100
	fresh.ReqGPUs = 4

	current := cluster.NewSchedule(topo)
	for g := 0; g < 4; g++ {
		current.SetSlot(cluster.GPUID(g), 0, 256)
	}
	view := makeView(100, topo, []simulator.JobView{old, fresh}, current)
	s := tires.Decide(simulator.TriggerArrival, view)
	if s == nil {
		t.Fatal("Tiresias made no decision")
	}
	if !s.IsRunning(1) {
		t.Error("fresh high-priority job not admitted")
	}
}

func TestDRLWeightsUpdateOnCompletion(t *testing.T) {
	d := NewDRL(5)
	topo := cluster.Uniform(1, 4)
	jv := sampleJobView(0)
	view := makeView(0, topo, []simulator.JobView{jv}, nil)
	if s := d.Decide(simulator.TriggerArrival, view); s == nil {
		t.Fatal("DRL scheduled nothing with idle GPUs")
	}
	before := d.weights
	// Job completes (vanishes): REINFORCE update must fire.
	d.Decide(simulator.TriggerCompletion, makeView(500, topo, nil, cluster.NewSchedule(topo)))
	// First completion sets the reward baseline; a second scheduled job
	// with a different JCT must move the weights.
	jv2 := sampleJobView(1)
	jv2.Submit = 500
	view2 := makeView(500, topo, []simulator.JobView{jv2}, cluster.NewSchedule(topo))
	if s := d.Decide(simulator.TriggerArrival, view2); s == nil {
		t.Fatal("DRL did not schedule the second job")
	}
	d.Decide(simulator.TriggerCompletion, makeView(3000, topo, nil, cluster.NewSchedule(topo)))
	if d.weights == before && d.nCompleted < 2 {
		t.Error("REINFORCE updates never ran")
	}
	if d.nCompleted != 2 {
		t.Errorf("completions learned: %d, want 2", d.nCompleted)
	}
}

func TestONESSeedsDiffer(t *testing.T) {
	// Different seeds should explore differently; smoke-check that two
	// seeds produce different deployments at some decision.
	topo := cluster.Uniform(2, 4)
	deploy := func(seed int64) string {
		o := NewONES(seed, 1.0/12)
		o.PopulationSize = 6
		var jobs []simulator.JobView
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 6; i++ {
			jv := sampleJobView(cluster.JobID(i))
			jv.Submit = float64(rng.Intn(50))
			jobs = append(jobs, jv)
		}
		s := o.Decide(simulator.TriggerArrival, makeView(60, topo, jobs, nil))
		if s == nil {
			return ""
		}
		return s.String()
	}
	if deploy(1) == deploy(999) {
		t.Log("two seeds deployed identically — acceptable but unusual; not failing")
	}
}
