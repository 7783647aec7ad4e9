package perfmodel

import (
	"fmt"
	"math"
)

// ConvergedEpochs is the paper's stopping rule: a job ends after this many
// consecutive epochs with validation accuracy at or above the target (§4.1).
const ConvergedEpochs = 10

// Trainer simulates one job's training trajectory under a (possibly
// changing) global batch size. It is fully deterministic: the same sequence
// of batch sizes and sample counts always yields the same loss/accuracy
// trajectory, which keeps scheduler comparisons paired (as required by the
// paper's Wilcoxon analysis).
type Trainer struct {
	prof        Profile
	datasetSize int  // samples per epoch (‖D‖)
	lrScaled    bool // linear LR scaling engaged (ONES does this; Fig 3 does not)

	batch       int     // current global batch size B
	effEpochs   float64 // accumulated effective epochs
	wallEpochs  float64 // accumulated real epochs (can be fractional)
	processed   int64   // total samples processed (Y_processed)
	spike       float64 // transient loss spike from an abrupt rescale
	consecAbove int     // consecutive epoch-ends with accuracy >= target
	converged   bool
}

// NewTrainer returns a Trainer for the profile with the given dataset size
// and initial global batch.
func NewTrainer(prof Profile, datasetSize, initialBatch int, lrScaled bool) (*Trainer, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if datasetSize <= 0 {
		return nil, fmt.Errorf("perfmodel: dataset size %d", datasetSize)
	}
	if initialBatch <= 0 {
		return nil, fmt.Errorf("perfmodel: initial batch %d", initialBatch)
	}
	return &Trainer{prof: prof, datasetSize: datasetSize, batch: initialBatch, lrScaled: lrScaled}, nil
}

// Profile returns the trainer's task profile.
func (t *Trainer) Profile() Profile { return t.prof }

// DatasetSize returns ‖D‖, the samples per epoch.
func (t *Trainer) DatasetSize() int { return t.datasetSize }

// Batch returns the current global batch size.
func (t *Trainer) Batch() int { return t.batch }

// Processed returns Y_processed, the total samples consumed so far.
func (t *Trainer) Processed() int64 { return t.processed }

// WallEpochs returns the number of (possibly fractional) epochs trained.
func (t *Trainer) WallEpochs() float64 { return t.wallEpochs }

// Converged reports whether the stopping rule has fired.
func (t *Trainer) Converged() bool { return t.converged }

// Loss returns the current training loss.
func (t *Trainer) Loss() float64 { return LossAt(t.prof, t.effEpochs, t.spike) }

// Accuracy returns the current validation accuracy.
func (t *Trainer) Accuracy() float64 {
	a := AccuracyAt(t.prof, t.effEpochs, t.batch, t.lrScaled)
	// The rescale spike also transiently depresses accuracy.
	a -= 0.2 * t.spike
	if a < 0 {
		a = 0
	}
	return a
}

// LossRatio returns r_loss = 1 − current/initial, one of the predictor's
// input features.
func (t *Trainer) LossRatio() float64 {
	r := 1 - t.Loss()/t.prof.InitLoss
	if r < 0 {
		r = 0
	}
	return r
}

// SetBatch changes the global batch size. Growing by more than
// AbruptFactor in one step injects gradient/momentum noise: the loss spikes
// and several effective epochs of progress are lost (Figure 13). Gradual
// growth — the only kind ONES's scale-up policy produces — is free
// (Figure 14).
func (t *Trainer) SetBatch(b int) {
	if b <= 0 || b == t.batch {
		return
	}
	factor := float64(b) / float64(t.batch)
	if factor > AbruptFactor {
		doublings := math.Log2(factor)
		t.spike += t.prof.SpikeCoeff * doublings
		t.effEpochs -= t.prof.RegressCoeff * doublings
		if t.effEpochs < 0 {
			t.effEpochs = 0
		}
	}
	t.batch = b
}

// AdvanceEpoch trains exactly one epoch at the current batch size.
func (t *Trainer) AdvanceEpoch() { t.AdvanceSamples(int64(t.datasetSize)) }

// AdvanceSamples trains through n samples at the current batch size,
// handling epoch crossings: the spike decays and the stopping rule is
// evaluated at each epoch boundary. Sample accounting is integer-exact so
// epoch boundaries never drift.
func (t *Trainer) AdvanceSamples(n int64) {
	if t.converged || n <= 0 {
		return
	}
	penalty := EpochPenalty(t.prof, t.batch, t.lrScaled)
	ds := int64(t.datasetSize)
	for n > 0 && !t.converged {
		toBoundary := ds - t.processed%ds
		step := n
		if step > toBoundary {
			step = toBoundary
		}
		t.processed += step
		frac := float64(step) / float64(ds)
		t.effEpochs += frac / penalty
		t.wallEpochs += frac
		n -= step
		if step == toBoundary { // crossed an epoch boundary
			t.wallEpochs = math.Round(t.wallEpochs) // kill float drift
			t.endOfEpoch()
		}
	}
}

// endOfEpoch applies the per-epoch bookkeeping: spike decay and the
// 10-consecutive-epochs-above-target stopping rule.
func (t *Trainer) endOfEpoch() {
	t.spike *= 0.6
	if t.spike < 1e-3 {
		t.spike = 0
	}
	if t.Accuracy() >= t.prof.TargetAcc {
		t.consecAbove++
	} else {
		t.consecAbove = 0
	}
	if t.consecAbove >= ConvergedEpochs {
		t.converged = true
	}
}

// RemainingSamples returns the oracle estimate of samples still needed to
// converge if training continues at batch B. Schedulers do NOT see this —
// they rely on the online predictor — but the simulator, the Optimus
// baseline's fitted speed model, and tests use it as ground truth.
// Returns +Inf when the job cannot converge at batch B.
func (t *Trainer) RemainingSamples(B int) float64 {
	if t.converged {
		return 0
	}
	effTarget := EffectiveEpochsToTarget(t.prof, B, t.lrScaled)
	if math.IsInf(effTarget, 1) {
		return math.Inf(1)
	}
	penalty := EpochPenalty(t.prof, B, t.lrScaled)
	effRemaining := effTarget - t.effEpochs
	var epochs float64
	if effRemaining > 0 {
		epochs = effRemaining * penalty
	}
	// Plus the confirmation epochs of the stopping rule.
	epochs += float64(ConvergedEpochs - t.consecAbove)
	if epochs < 0 {
		epochs = 0
	}
	return epochs * float64(t.datasetSize)
}

// TrueProgress returns the oracle training progress ρ ∈ (0, 1]: processed
// samples over processed-plus-remaining. This is the quantity the online
// Beta predictor estimates.
func (t *Trainer) TrueProgress() float64 {
	if t.converged {
		return 1
	}
	rem := t.RemainingSamples(t.batch)
	if math.IsInf(rem, 1) {
		return 0
	}
	total := float64(t.processed) + rem
	if total <= 0 {
		return 0
	}
	return float64(t.processed) / total
}
