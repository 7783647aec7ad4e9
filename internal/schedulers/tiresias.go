package schedulers

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/simulator"
)

// Tiresias reproduces the Tiresias baseline (NSDI '19) as characterized in
// the paper's Table 3: a greedy scheduler with preemption but fixed job
// sizes and fixed batch sizes. Jobs live in a discretized multi-level
// feedback queue ordered by attained GPU service (the Least Attained
// Service policy): jobs that have consumed little GPU time get priority,
// which approximates shortest-remaining-first without any job-length
// prediction. Preemption uses checkpoint-based migration.
type Tiresias struct{}

// tiresiasDemoteAt is the attained service (GPU-seconds) that moves a
// job from the high-priority queue to the low one.
const tiresiasDemoteAt = 2000

// NewTiresias returns a two-queue Tiresias.
func NewTiresias() *Tiresias { return &Tiresias{} }

// Traits implements simulator.Scheduler: Tiresias reacts to events, its
// preemption goes through checkpoints, and it treats jobs as black boxes
// (Table 3), so large user-configured batches keep the user's LR.
func (t *Tiresias) Traits() simulator.Traits {
	return simulator.Traits{Name: "Tiresias", Cost: simulator.CostCheckpoint}
}

// queueOf returns the job's priority queue index (0 = highest priority).
func (t *Tiresias) queueOf(j simulator.JobView) int {
	attained := j.ExecTime * float64(j.GPUs)
	if !j.Running {
		attained = j.ExecTime // frozen service while waiting
	}
	if attained >= tiresiasDemoteAt {
		return 1
	}
	return 0
}

// Decide implements simulator.Scheduler: recompute the desired running set
// in (queue, arrival) priority order with gang semantics, preempting
// lower-priority jobs when a higher-priority one needs their GPUs.
func (t *Tiresias) Decide(trigger simulator.Trigger, view *simulator.View) *cluster.Schedule {
	jobs := append([]simulator.JobView(nil), view.Jobs...)
	sort.SliceStable(jobs, func(i, k int) bool {
		qi, qk := t.queueOf(jobs[i]), t.queueOf(jobs[k])
		if qi != qk {
			return qi < qk
		}
		return jobs[i].Submit < jobs[k].Submit
	})
	// Admit greedily in priority order with the fixed requested size.
	capacity := view.Topo.TotalGPUs()
	admit := make(map[cluster.JobID]bool, len(jobs))
	for _, j := range jobs {
		if j.ReqGPUs <= capacity {
			admit[j.ID] = true
			capacity -= j.ReqGPUs
		}
	}
	// Keep currently running admitted jobs in place; evict the rest;
	// place newly admitted ones into freed slots.
	s := view.Current.Clone()
	changed := false
	for _, j := range view.Jobs {
		if j.Running && !admit[j.ID] {
			s.Evict(j.ID)
			changed = true
		}
	}
	for _, j := range jobs {
		if !admit[j.ID] || s.IsRunning(j.ID) {
			continue
		}
		if placeGang(s, j.ID, j.ReqGPUs, j.ReqBatch, j.Task.Profile.MaxPerGPU) {
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return s
}
