// Package scaling implements the paper's training-performance control
// (§3.3.2) — the dynamic batch-size limit R_j each job must respect — and
// the cost model for executing a rescale, contrasting ONES's elastic
// batch-size scaling with conventional checkpoint-based migration
// (§4.3 / Figure 16).
package scaling

import (
	"math"

	"repro/internal/perfmodel"
)

// MinBatch is the smallest schedulable batch quantum. Limits and
// allocations are kept at multiples of it.
const MinBatch = 32

// Limiter applies the four R_j policies. The zero value is not usable;
// construct with NewLimiter.
type Limiter struct {
	// Sigma is the convoy-effect penalty factor σ. The paper suggests
	// σ = λ (the average job arrival rate) so that jobs running longer
	// than the mean interarrival time get progressively squeezed.
	Sigma float64
}

// NewLimiter returns a limiter with σ set to the workload arrival rate.
func NewLimiter(arrivalRate float64) *Limiter {
	if arrivalRate < 0 {
		arrivalRate = 0
	}
	return &Limiter{Sigma: arrivalRate}
}

// Start returns the initial limit for a newly arrived job: it must fit in
// a single GPU until its warm-up steps complete ("Start" policy).
func (l *Limiter) Start(p perfmodel.Profile) int {
	r := p.RefBatch
	if r > p.MaxPerGPU {
		r = p.MaxPerGPU
	}
	if r < MinBatch {
		r = MinBatch
	}
	return r
}

// ScaleUp doubles the limit after a completed training epoch ("Scale-up"
// policy): gradual growth keeps each step within the abrupt-rescale bound.
// The limit is capped at maxGlobal (the cluster-wide ceiling: MaxPerGPU ×
// total GPUs, possibly tightened by the caller).
func (l *Limiter) ScaleUp(r, maxGlobal int) int {
	r *= 2
	if maxGlobal > 0 && r > maxGlobal {
		r = maxGlobal
	}
	if r < MinBatch {
		r = MinBatch
	}
	return r
}

// Reject halves the limit of a job that requested resumption and was left
// waiting ("Resume" policy): progressively smaller requests reduce queuing
// time and prevent starvation.
func (l *Limiter) Reject(r int) int {
	r /= 2
	if r < MinBatch {
		r = MinBatch
	}
	return r
}

// Update applies the per-epoch limit transition combining the Scale-up and
// Scale-down policies: while the job is short (σ·T ≤ 1) the limit doubles;
// once its executed time makes it a convoy risk, the penalized formula
// takes over and the limit shrinks. maxGlobal caps the result (0 ⇒ no cap).
func (l *Limiter) Update(r int, processedSeconds float64, maxGlobal int) int {
	if l.Sigma*processedSeconds <= 1 {
		return l.ScaleUp(r, maxGlobal)
	}
	nr := l.ScaleDown(r, processedSeconds)
	if maxGlobal > 0 && nr > maxGlobal {
		nr = maxGlobal
	}
	return nr
}

// ScaleDown penalizes a long-running job to prevent the convoy effect
// ("Scale-down" policy):
//
//	R′ = ⌈2R / ⌈σ·T_processed + 1⌉⌉
//
// where T_processed is the job's executed time in seconds. For jobs shorter
// than the mean interarrival interval the factor is 1 and the limit doubles
// (no penalty); beyond it the limit shrinks.
func (l *Limiter) ScaleDown(r int, processedSeconds float64) int {
	denom := math.Ceil(l.Sigma*processedSeconds + 1)
	if denom < 1 {
		denom = 1
	}
	nr := int(math.Ceil(2 * float64(r) / denom))
	if nr < MinBatch {
		nr = MinBatch
	}
	return nr
}

// The reconfiguration cost model, calibrated against Figure 16: elastic
// scaling costs a fixed coordination overhead plus a parameter
// broadcast, totalling ~0.3–1.2 s; checkpoint-based migration pays
// process restart + data preparation + serialized model I/O, totalling
// ~10–22 s.
const (
	elasticBase    = 0.2 // pause + topology reconnection (s)
	broadcastBW    = 5e8 // parameter broadcast bandwidth (bytes/s)
	checkpointBase = 9.0 // stop, restart process, CUDA init, data prep (s)
	serializeBW    = 5e7 // checkpoint write+read bandwidth (bytes/s)
)

// ElasticCost returns the seconds to execute an elastic batch-size
// rescale of a job with the given profile. Shrinking (no new workers)
// skips the parameter broadcast.
func ElasticCost(p perfmodel.Profile, oldWorkers, newWorkers int) float64 {
	cost := elasticBase
	if newWorkers > oldWorkers {
		cost += p.GradBytes / broadcastBW
	}
	return cost
}

// CheckpointCost returns the seconds for checkpoint-based migration of a
// job with the given profile (save, stop, restart, reload).
func CheckpointCost(p perfmodel.Profile) float64 {
	return checkpointBase + p.GradBytes/serializeBW
}
