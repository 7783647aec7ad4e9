package schedulers

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/simulator"
)

// DRL reproduces the deep-reinforcement-learning baseline (Chic, adapted
// to all-reduce training as described in §4.1): a policy network scores
// (waiting job, worker count) actions, one job is (re)scheduled per
// decision, jobs are never preempted (Table 3), and the policy improves
// online with REINFORCE updates whose reward is the negated completion
// time of finished jobs.
//
// The "network" is a linear softmax policy over hand-crafted features —
// enough capacity for this action space while keeping the reproduction
// dependency-free, and faithful to the baseline's structural limits
// (single action per step, no preemption).
type DRL struct {
	weights [drlFeatures]float64
	rng     *rand.Rand

	// episode log: features of each chosen action per job, consumed as
	// the job completes.
	chosen map[cluster.JobID][drlFeatures]float64
	seen   map[cluster.JobID]bool
	// lastJCT tracks now−submit per scheduled job so the reward is still
	// available after the job leaves the view.
	lastJCT map[cluster.JobID]float64
	// running reward baseline for variance reduction.
	baseline    float64
	nCompleted  int
	rewardScale float64
}

const (
	drlFeatures = 6
	// drlLearnRate is the REINFORCE step size.
	drlLearnRate = 0.01
	// drlTemperature softens the softmax during action sampling.
	drlTemperature = 1
)

// NewDRL returns a DRL scheduler seeded deterministically.
func NewDRL(seed int64) *DRL {
	return &DRL{
		rng:         rand.New(rand.NewSource(seed)),
		chosen:      make(map[cluster.JobID][drlFeatures]float64),
		seen:        make(map[cluster.JobID]bool),
		lastJCT:     make(map[cluster.JobID]float64),
		rewardScale: 1000,
	}
}

// Traits implements simulator.Scheduler: DRL's decisions are
// event-driven; it never preempts, so its only reconfigurations are job
// starts, where checkpoint-style loading applies; and it sizes jobs but
// leaves batch size and LR at the user's configuration (Table 3).
func (d *DRL) Traits() simulator.Traits {
	return simulator.Traits{Name: "DRL", Cost: simulator.CostCheckpoint}
}

// features builds the policy input for assigning c GPUs to job j.
func (d *DRL) features(view *simulator.View, j simulator.JobView, c int) [drlFeatures]float64 {
	idle := float64(view.Current.NumIdle())
	total := float64(view.Topo.TotalGPUs())
	return [drlFeatures]float64{
		1,
		float64(c) / 8,
		math.Log1p(float64(j.Task.DatasetSize)) / 12,
		math.Log1p(view.Now-j.Submit) / 8, // waiting time pressure
		idle / total,
		float64(j.ReqGPUs) / 8,
	}
}

func (d *DRL) scoreOf(f [drlFeatures]float64) float64 {
	var s float64
	for i, w := range d.weights {
		s += w * f[i]
	}
	return s
}

// learn applies REINFORCE updates for jobs that completed since the last
// decision: any job we scheduled that is no longer in the view has
// finished, and its reward is the negated JCT (approximated by now −
// submit at the first decision after completion).
func (d *DRL) learn(view *simulator.View) {
	alive := make(map[cluster.JobID]bool, len(view.Jobs))
	for _, j := range view.Jobs {
		alive[j.ID] = true
	}
	ids := make([]cluster.JobID, 0, len(d.chosen))
	for id := range d.chosen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	for _, id := range ids {
		f := d.chosen[id]
		if alive[id] {
			continue
		}
		// Completed. Reward: shorter JCT is better.
		reward := -d.lastJCT[id] / d.rewardScale
		d.nCompleted++
		d.baseline += (reward - d.baseline) / float64(d.nCompleted)
		adv := reward - d.baseline
		for i := range d.weights {
			d.weights[i] += drlLearnRate * adv * f[i]
		}
		delete(d.chosen, id)
		delete(d.lastJCT, id)
	}
}

// Decide implements simulator.Scheduler: pick at most one waiting job and
// one worker count via softmax over the policy scores, and start it on
// idle GPUs with its fixed requested batch.
func (d *DRL) Decide(trigger simulator.Trigger, view *simulator.View) *cluster.Schedule {
	for _, j := range view.Jobs {
		if d.seen[j.ID] {
			d.lastJCT[j.ID] = view.Now - j.Submit
		}
	}
	d.learn(view)

	idle := view.Current.NumIdle()
	if idle == 0 {
		return nil
	}
	waiting := waitingJobs(view)
	if len(waiting) == 0 {
		return nil
	}
	// Enumerate (job, workers) actions that fit the idle capacity.
	type action struct {
		job   simulator.JobView
		gpus  int
		feats [drlFeatures]float64
		score float64
	}
	var actions []action
	for _, j := range waiting {
		for _, c := range []int{1, 2, 4, 8} {
			if c > idle || c > j.ReqBatch {
				continue
			}
			f := d.features(view, j, c)
			actions = append(actions, action{job: j, gpus: c, feats: f, score: d.scoreOf(f)})
		}
	}
	if len(actions) == 0 {
		return nil
	}
	// Softmax sampling.
	maxS := actions[0].score
	for _, a := range actions[1:] {
		if a.score > maxS {
			maxS = a.score
		}
	}
	var z float64
	probs := make([]float64, len(actions))
	for i, a := range actions {
		probs[i] = math.Exp((a.score - maxS) / drlTemperature)
		z += probs[i]
	}
	r := d.rng.Float64() * z
	pick := 0
	for i, p := range probs {
		if r < p {
			pick = i
			break
		}
		r -= p
	}
	a := actions[pick]
	s := view.Current.Clone()
	if !placeGang(s, a.job.ID, a.gpus, a.job.ReqBatch, a.job.Task.Profile.MaxPerGPU) {
		return nil
	}
	d.chosen[a.job.ID] = a.feats
	d.seen[a.job.ID] = true
	d.lastJCT[a.job.ID] = view.Now - a.job.Submit
	return s
}
