// Package schedulers contains the ONES scheduler driver and the baseline
// policies it is evaluated against in the paper: DRL, Tiresias and Optimus
// (Table 3), plus simple FIFO/SJF extras used for ablations and tests.
package schedulers

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/simulator"
)

// waitingJobs returns the alive jobs without GPUs, in arrival order.
func waitingJobs(view *simulator.View) []simulator.JobView {
	var out []simulator.JobView
	for _, j := range view.Jobs {
		if !j.Running {
			out = append(out, j)
		}
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].Submit < out[k].Submit })
	return out
}

// placeGang assigns `gpus` idle GPUs to the job with an even split of
// `batch`, first clamped so the per-GPU batch fits maxPerGPU (no cap when
// maxPerGPU ≤ 0), preferring contiguous placement (lowest-index idle
// GPUs, which the reorder convention keeps packed). Returns false without
// modifying s when not enough GPUs are idle.
func placeGang(s *cluster.Schedule, id cluster.JobID, gpus, batch, maxPerGPU int) bool {
	idle := s.IdleGPUs()
	if len(idle) < gpus || gpus <= 0 {
		return false
	}
	if maxPerGPU > 0 {
		batch = min(batch, gpus*maxPerGPU)
	}
	if batch < gpus {
		batch = gpus
	}
	base := batch / gpus
	rem := batch % gpus
	for i := 0; i < gpus; i++ {
		b := base
		if i < rem {
			b++
		}
		s.SetSlot(idle[i], id, b)
	}
	return true
}

// FIFO is the simplest baseline: first-come first-served gang scheduling
// with the user-requested fixed size, no preemption, checkpoint-based
// starts. It exists for tests and as a floor in ablation benches.
type FIFO struct{}

// NewFIFO returns a FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Traits implements simulator.Scheduler: FIFO is event-driven, starts
// jobs from checkpoints and runs them as black boxes.
func (f *FIFO) Traits() simulator.Traits {
	return simulator.Traits{Name: "FIFO", Cost: simulator.CostCheckpoint}
}

// Decide implements simulator.Scheduler: admit waiting jobs in arrival
// order while they fit; never touch running jobs.
func (f *FIFO) Decide(trigger simulator.Trigger, view *simulator.View) *cluster.Schedule {
	waiting := waitingJobs(view)
	if len(waiting) == 0 {
		return nil
	}
	s := view.Current.Clone()
	changed := false
	for _, j := range waiting {
		if placeGang(s, j.ID, j.ReqGPUs, j.ReqBatch, j.Task.Profile.MaxPerGPU) {
			changed = true
		} else {
			break // strict FIFO: the head of the queue blocks
		}
	}
	if !changed {
		return nil
	}
	return s
}

// SJF schedules the waiting job with the smallest requested work first
// (using dataset size × base epochs as the size proxy), still gang and
// non-preemptive. Used in ablation benches.
type SJF struct{}

// NewSJF returns an SJF scheduler.
func NewSJF() *SJF { return &SJF{} }

// Traits implements simulator.Scheduler: like FIFO, SJF is event-driven,
// starts jobs from checkpoints and runs them as black boxes.
func (s *SJF) Traits() simulator.Traits {
	return simulator.Traits{Name: "SJF", Cost: simulator.CostCheckpoint}
}

// Decide implements simulator.Scheduler.
func (s *SJF) Decide(trigger simulator.Trigger, view *simulator.View) *cluster.Schedule {
	waiting := waitingJobs(view)
	if len(waiting) == 0 {
		return nil
	}
	sort.SliceStable(waiting, func(i, k int) bool {
		wi := float64(waiting[i].Task.DatasetSize) * waiting[i].Task.Profile.BaseEpochs
		wk := float64(waiting[k].Task.DatasetSize) * waiting[k].Task.Profile.BaseEpochs
		return wi < wk
	})
	sched := view.Current.Clone()
	changed := false
	for _, j := range waiting {
		if placeGang(sched, j.ID, j.ReqGPUs, j.ReqBatch, j.Task.Profile.MaxPerGPU) {
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return sched
}
