package schedulers

import (
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/simulator"
)

// Optimus reproduces the Optimus baseline (EuroSys '18) as characterized
// in the paper's Table 3: a periodic greedy scheduler with elastic job
// sizes but fixed global batch sizes. Every scheduling interval (10
// minutes in the paper, §4.2) it rebuilds the whole allocation:
//
//  1. every alive job gets one worker for fairness (arrival order when
//     over-subscribed), then
//  2. the job with the largest marginal reduction in estimated remaining
//     time repeatedly receives one more GPU until the cluster is full.
//
// Remaining time is estimated from an online fit of the job's observed
// accuracy trajectory — mirroring Optimus's resource-speed models — and
// all reconfigurations go through checkpoint-based migration.
type Optimus struct {
	hist map[cluster.JobID][]obsPoint
}

// obsPoint is one observed (epochs, accuracy) pair.
type obsPoint struct {
	epochs float64
	acc    float64
}

// optimusInterval is the rescheduling period in seconds (paper: 600).
const optimusInterval = 600

// NewOptimus returns an Optimus with the paper's 10-minute interval.
func NewOptimus() *Optimus {
	return &Optimus{hist: make(map[cluster.JobID][]obsPoint)}
}

// Traits implements simulator.Scheduler: Optimus reschedules every
// optimusInterval, migrates through checkpoints, and adjusts worker counts
// but never touches the batch size or learning rate (Table 3).
func (o *Optimus) Traits() simulator.Traits {
	return simulator.Traits{Name: "Optimus", TickInterval: optimusInterval, Cost: simulator.CostCheckpoint}
}

// observe records the job's current training point for curve fitting.
func (o *Optimus) observe(view *simulator.View) {
	for _, j := range view.Jobs {
		h := o.hist[j.ID]
		if len(h) == 0 || j.WallEpochs > h[len(h)-1].epochs+1e-9 {
			o.hist[j.ID] = append(h, obsPoint{epochs: j.WallEpochs, acc: j.Accuracy})
		}
	}
}

// remainingEpochs estimates epochs until the job hits its target accuracy
// by extrapolating the recent accuracy slope. Fresh jobs fall back to the
// profile's nominal length. The estimate is floored at one epoch.
func (o *Optimus) remainingEpochs(j simulator.JobView) float64 {
	target := j.Task.Profile.TargetAcc
	if j.Accuracy >= target {
		return 1 // in its confirmation epochs
	}
	h := o.hist[j.ID]
	if len(h) >= 2 {
		a, b := h[len(h)-2], h[len(h)-1]
		de := b.epochs - a.epochs
		da := b.acc - a.acc
		if de > 0 && da > 1e-6 {
			rate := da / de
			// The accuracy curve decelerates; pad the linear extrapolation.
			rem := (target - j.Accuracy) / rate * 1.5
			if rem < 1 {
				rem = 1
			}
			return rem
		}
	}
	rem := j.Task.Profile.BaseEpochs - j.WallEpochs
	if rem < 1 {
		rem = 1
	}
	return rem
}

// remainingTime estimates seconds to completion with c workers at the
// job's fixed global batch.
func (o *Optimus) remainingTime(view *simulator.View, j simulator.JobView, c int) float64 {
	x := view.Throughput(j.ID, j.ReqBatch, c, view.Topo.MinServersFor(c))
	if x <= 0 {
		return 1e18
	}
	samples := o.remainingEpochs(j) * float64(j.Task.DatasetSize)
	return samples / x
}

// Decide implements simulator.Scheduler. Optimus only acts on its periodic
// tick (plus the very first arrivals, so the cluster is not idle before
// the first interval elapses).
func (o *Optimus) Decide(trigger simulator.Trigger, view *simulator.View) *cluster.Schedule {
	o.observe(view)
	if trigger != simulator.TriggerTick && trigger != simulator.TriggerArrival {
		return nil
	}
	running := func(j simulator.JobView) bool { return j.Running }
	if trigger == simulator.TriggerArrival && slices.ContainsFunc(view.Jobs, running) {
		// Mid-interval arrivals wait for the next tick — the paper's
		// critique of periodic schedulers.
		return nil
	}
	jobs := append([]simulator.JobView(nil), view.Jobs...)
	if len(jobs) == 0 {
		return nil
	}
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].Submit < jobs[k].Submit })

	total := view.Topo.TotalGPUs()
	alloc := make(map[cluster.JobID]int, len(jobs))
	used := 0
	// Step 1: one worker each, arrival order.
	for _, j := range jobs {
		if used >= total {
			break
		}
		alloc[j.ID] = 1
		used++
	}
	// Step 2: greedy marginal-gain growth.
	for used < total {
		var best cluster.JobID = cluster.NoJob
		var bestGain float64
		for _, j := range jobs {
			c := alloc[j.ID]
			if c == 0 || c >= j.ReqBatch { // local batch must stay ≥ 1 sample
				continue
			}
			gain := o.remainingTime(view, j, c) - o.remainingTime(view, j, c+1)
			if gain > bestGain {
				bestGain = gain
				best = j.ID
			}
		}
		if best == cluster.NoJob {
			break
		}
		alloc[best]++
		used++
	}
	// Materialize, keeping placements stable where the count is unchanged.
	s := view.Current.Clone()
	changed := false
	for _, j := range view.Jobs {
		want := alloc[j.ID]
		if j.Running && want != j.GPUs {
			s.Evict(j.ID)
			changed = true
		}
	}
	for _, j := range jobs {
		want := alloc[j.ID]
		if want == 0 || s.IsRunning(j.ID) {
			continue
		}
		if placeGang(s, j.ID, want, j.ReqBatch, j.Task.Profile.MaxPerGPU) {
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return s
}
