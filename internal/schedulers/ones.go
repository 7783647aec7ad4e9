package schedulers

import (
	"math"
	"math/rand"
	gorun "runtime"

	"repro/internal/cluster"
	"repro/internal/evolution"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/scaling"
	"repro/internal/simulator"
)

// ONES is the paper's scheduler: an online evolutionary search over
// batch-size genomes (§3.2) steered by a Beta-regression progress
// predictor (§3.2.1), with the batch-size limit policies of §3.3.2 and
// checkpoint-free elastic scaling (§3.3.1).
type ONES struct {
	// PopulationSize K; the paper suggests matching the GPU count.
	// Zero ⇒ set to the cluster size on first decision.
	PopulationSize int
	// MutationRate θ for the uniform mutation operator.
	MutationRate float64
	// Parallelism is the number of goroutines the evolution engine uses
	// per iteration (0 ⇒ GOMAXPROCS). Results are identical regardless:
	// candidate randomness is pre-seeded serially.
	Parallelism int
	// DisableReorder / DisableSampling / DisableScaleDown are ablation
	// switches used by the benchmark harness.
	DisableReorder   bool
	DisableSampling  bool
	DisableScaleDown bool

	// Obs, when set before the first decision, receives out-of-band
	// search telemetry: evolution generations and candidates, the
	// throughput-memo hit ratio, decision and deployment counts. Results
	// are byte-identical with or without it.
	Obs *obs.Registry
	// Span, when set, is the parent span under which Decide records one
	// "evolution-interval" child per decision (bounded by the owning
	// trace's span cap). Out of band only, like Obs.
	Span *obs.Span

	memoHits    *obs.Counter
	memoMisses  *obs.Counter
	decisions   *obs.Counter
	deployments *obs.Counter

	engine      *evolution.Engine
	pred        *predictor.Predictor
	limiter     *scaling.Limiter
	rng         *rand.Rand
	arrivalRate float64
	cancelled   func() bool

	jobs map[cluster.JobID]*onesJob
	// lastDeployEpochs snapshots each running job's epoch count at the
	// last deployment: the paper deploys a new champion only after every
	// running job finishes at least one more epoch.
	lastDeployEpochs map[cluster.JobID]float64
	deployed         bool
}

const (
	// onesItersPerDecision is how many evolution rounds run at each
	// decision point (the real system evolves continuously in the
	// background; more rounds per event approximate that).
	onesItersPerDecision = 2
	// onesWarmupEpochs holds a new job at its start limit until it has
	// trained this many epochs ("Start" policy).
	onesWarmupEpochs = 1
)

// onesJob is ONES's private per-job state.
type onesJob struct {
	limit      int
	startLimit int
	everRan    bool
	seenEpochs float64
	logs       []predictor.Sample
	logSamples []int64 // processed counter at each log point
	lastSeen   simulator.JobView
	wasWaiting bool // waiting at the previous deployment (Resume policy)
}

// NewONES builds the scheduler. arrivalRate (λ) tunes the scale-down
// penalty σ; pass the trace's workload.Config.ArrivalRate().
//
// The paper suggests σ = λ so jobs longer than the mean interarrival
// interval are penalized. Applied literally at this simulation's workload
// intensity (interarrival tens of seconds, typical JCT hundreds) that
// collapses every batch limit within minutes, so σ is normalized by the
// cluster size on first decision: a job is a convoy risk once it runs
// longer than the interarrival time of work per GPU.
func NewONES(seed int64, arrivalRate float64) *ONES {
	return &ONES{
		MutationRate:     0.1,
		arrivalRate:      arrivalRate,
		pred:             predictor.New(seed, predictor.DefaultConfig()),
		limiter:          scaling.NewLimiter(arrivalRate),
		rng:              rand.New(rand.NewSource(seed)),
		jobs:             make(map[cluster.JobID]*onesJob),
		lastDeployEpochs: make(map[cluster.JobID]float64),
	}
}

// Name implements simulator.Scheduler.
func (o *ONES) Name() string { return "ONES" }

// TickInterval implements simulator.Scheduler: ONES is event-driven (the
// population evolves at every arrival, epoch end and completion).
func (o *ONES) TickInterval() float64 { return 0 }

// CostKind implements simulator.Scheduler: reconfigurations use the
// elastic batch-size scaling mechanism.
func (o *ONES) CostKind() simulator.CostKind { return simulator.CostElastic }

// ManagesLR implements simulator.Scheduler: ONES scales the learning rate
// linearly with the batch size (§3.3.2), so its jobs keep their
// convergence behaviour across rescales.
func (o *ONES) ManagesLR() bool { return true }

// Predictor exposes the online progress model to tests.
func (o *ONES) Predictor() *predictor.Predictor { return o.pred }

// SetCancel implements simulator.CancelAware: the evolution loop polls
// the probe between candidate tasks so a cancelled run aborts
// mid-decision instead of waiting out the search.
func (o *ONES) SetCancel(cancelled func() bool) {
	o.cancelled = cancelled
	if o.engine != nil {
		o.engine.Cancel = cancelled
	}
}

// Decide implements simulator.Scheduler.
func (o *ONES) Decide(trigger simulator.Trigger, view *simulator.View) *cluster.Schedule {
	if o.engine == nil {
		k := o.PopulationSize
		if k <= 0 {
			k = view.Topo.TotalGPUs()
			o.PopulationSize = k
		}
		o.engine = evolution.NewEngine(k, o.MutationRate)
		o.engine.Cancel = o.cancelled
		o.engine.DisableReorder = o.DisableReorder
		o.engine.DisableSampling = o.DisableSampling
		if o.Parallelism > 0 {
			o.engine.Parallelism = o.Parallelism
		} else {
			o.engine.Parallelism = gorun.GOMAXPROCS(0)
		}
		o.limiter.Sigma = o.arrivalRate / float64(view.Topo.TotalGPUs())
		// Register instrument handles with the engine (all calls are
		// nil-safe, so an unset Obs just leaves them nil).
		o.engine.Generations = o.Obs.Counter("evolution_generations_total", "Evolution rounds executed (Engine.Iterate calls).")
		o.engine.Candidates = o.Obs.Counter("evolution_candidates_total", "Candidate schedules generated across all evolution rounds.")
		o.memoHits = o.Obs.Counter("evolution_memo_hits_total", "Throughput evaluations answered by the per-decision memo.")
		o.memoMisses = o.Obs.Counter("evolution_memo_misses_total", "Throughput evaluations computed fresh (memo misses).")
		o.decisions = o.Obs.Counter("ones_decisions_total", "ONES scheduling decisions taken.")
		o.deployments = o.Obs.Counter("ones_deployments_total", "Champion schedules actually deployed (improvements over the live schedule).")
	}
	o.ingest(view)

	evoSpan := o.Span.StartChild("evolution-interval")
	ctx := o.buildContext(view)
	var champion *cluster.Schedule
	for i := 0; i < onesItersPerDecision; i++ {
		champion = o.engine.Iterate(ctx)
	}
	evoSpan.End()

	o.decisions.Inc()
	if o.cancelled != nil && o.cancelled() {
		// The search was cut short: the champion may be stale — it can
		// even reference jobs that completed since the population last
		// refreshed — so deploying it could be invalid. Keep the current
		// deployment; the simulator is about to abort the run anyway.
		return nil
	}
	if !o.shouldDeploy(trigger, view) || champion.Equal(view.Current) {
		return nil
	}
	o.deployments.Inc()
	o.recordDeployment(view, champion)
	return champion
}

// ingest folds the fresh view into per-job state: epoch crossings update
// the batch-size limits and append predictor log points; vanished jobs are
// finalized into the predictor's training set.
func (o *ONES) ingest(view *simulator.View) {
	alive := make(map[cluster.JobID]bool, len(view.Jobs))
	for _, j := range view.Jobs {
		alive[j.ID] = true
		st, ok := o.jobs[j.ID]
		if !ok {
			st = &onesJob{
				limit:      o.limiter.Start(j.Task.Profile),
				startLimit: o.limiter.Start(j.Task.Profile),
			}
			o.jobs[j.ID] = st
		}
		// Epoch crossings since last view.
		newEpochs := math.Floor(j.WallEpochs)
		for e := math.Floor(st.seenEpochs) + 1; e <= newEpochs; e++ {
			o.onEpochEnd(&j, st, view.Topo)
		}
		st.seenEpochs = j.WallEpochs
		st.lastSeen = j
		if j.Running {
			st.everRan = true
		}
	}
	// Finalize completed jobs into the predictor.
	for id, st := range o.jobs {
		if alive[id] {
			continue
		}
		o.finalize(st)
		delete(o.jobs, id)
		delete(o.lastDeployEpochs, id)
	}
}

// onEpochEnd applies the per-epoch limit update (the §3.3.2 scale-up /
// scale-down rule) and logs a predictor sample.
func (o *ONES) onEpochEnd(j *simulator.JobView, st *onesJob, topo cluster.Topology) {
	maxGlobal := topo.TotalGPUs() * j.Task.Profile.MaxPerGPU
	if j.WallEpochs < onesWarmupEpochs {
		// Still warming up: hold the start limit.
		st.limit = st.startLimit
	} else if o.DisableScaleDown {
		st.limit = o.limiter.ScaleUp(st.limit, maxGlobal)
	} else {
		st.limit = o.limiter.Update(st.limit, j.ExecTime, maxGlobal)
	}
	st.logs = append(st.logs, predictor.Sample{
		X: predictor.Features{
			DatasetSize: float64(j.Task.DatasetSize),
			InitLoss:    j.Task.Profile.InitLoss,
			Processed:   float64(j.Processed),
			LossRatio:   lossRatio(j),
			Accuracy:    j.Accuracy,
		},
		Progress: 0, // labeled at completion
	})
	st.logSamples = append(st.logSamples, j.Processed)
}

func lossRatio(j *simulator.JobView) float64 {
	if j.Task.Profile.InitLoss <= 0 {
		return 0
	}
	r := 1 - j.Loss/j.Task.Profile.InitLoss
	if r < 0 {
		r = 0
	}
	return r
}

// finalize labels a completed job's log with true progress and feeds the
// predictor.
func (o *ONES) finalize(st *onesJob) {
	total := st.lastSeen.Processed
	if total <= 0 || len(st.logs) == 0 {
		return
	}
	labeled := st.logs[:0]
	for i := range st.logs {
		p := float64(st.logSamples[i]) / float64(total)
		if p <= 0 || p >= 1 {
			continue
		}
		st.logs[i].Progress = p
		labeled = append(labeled, st.logs[i])
	}
	if len(labeled) == 0 {
		return
	}
	// AddCompletedJob only errors on out-of-range progress, which the
	// filter above precludes.
	_ = o.pred.AddCompletedJob(labeled)
}

// buildContext assembles the evolution context from the view and ONES
// state.
func (o *ONES) buildContext(view *simulator.View) *evolution.Context {
	jobs := make(map[cluster.JobID]*evolution.JobInfo, len(view.Jobs))
	var newJobs []cluster.JobID
	for _, j := range view.Jobs {
		st := o.jobs[j.ID]
		dist := o.pred.Predict(predictor.Features{
			DatasetSize: float64(j.Task.DatasetSize),
			InitLoss:    j.Task.Profile.InitLoss,
			Processed:   float64(j.Processed),
			LossRatio:   lossRatio(&j),
			Accuracy:    j.Accuracy,
		})
		jobs[j.ID] = &evolution.JobInfo{
			ID:               j.ID,
			Limit:            st.limit,
			MaxPerGPU:        j.Task.Profile.MaxPerGPU,
			DeployedBatch:    j.Batch,
			EpochSize:        float64(j.Task.DatasetSize),
			ProcessedSamples: float64(j.Processed),
			ProcessedTime:    j.ExecTime,
			Dist:             dist,
		}
		if !st.everRan && !j.Running {
			newJobs = append(newJobs, j.ID)
		}
	}
	return &evolution.Context{
		Topo:       view.Topo,
		Jobs:       jobs,
		NewJobs:    newJobs,
		Throughput: view.Throughput,
		Rng:        o.rng,
		MemoHits:   o.memoHits,
		MemoMisses: o.memoMisses,
	}
}

// shouldDeploy applies the paper's update rule: deploy when resources
// changed (arrival or completion) or when every running job has completed
// at least one epoch since the previous deployment.
func (o *ONES) shouldDeploy(trigger simulator.Trigger, view *simulator.View) bool {
	if !o.deployed {
		return true
	}
	if trigger == simulator.TriggerArrival || trigger == simulator.TriggerCompletion {
		return true
	}
	for _, j := range view.Jobs {
		if !j.Running {
			continue
		}
		since, ok := o.lastDeployEpochs[j.ID]
		if ok && j.WallEpochs < since+1 {
			return false
		}
	}
	return true
}

// recordDeployment snapshots epochs and applies the Resume policy: a job
// that was already waiting at the previous deployment and stays waiting in
// the new one has its limit halved (reducing its footprint so it can be
// admitted sooner).
func (o *ONES) recordDeployment(view *simulator.View, next *cluster.Schedule) {
	o.deployed = true
	for _, j := range view.Jobs {
		st := o.jobs[j.ID]
		willRun := next.IsRunning(j.ID)
		if !willRun && st.wasWaiting && st.everRan {
			st.limit = o.limiter.Reject(st.limit)
		}
		st.wasWaiting = !willRun
		if willRun {
			o.lastDeployEpochs[j.ID] = j.WallEpochs
		}
	}
}
