// Package perfmodel is the analytic substitute for real distributed DL
// training. The paper evaluates ONES on 64 V100 GPUs training PyTorch
// models; this repository has no GPUs, so every quantity the scheduler
// observes — throughput, loss, validation accuracy, convergence — is
// produced by the models in this package instead.
//
// The models capture exactly the phenomena the paper's scheduling argument
// rests on:
//
//   - Data-parallel throughput X(B, c): per-step time is per-GPU compute
//     (linear in the local batch b = B/c plus a fixed kernel overhead) plus
//     ring all-reduce communication that grows with the worker count and
//     worsens when the job spans servers. With a fixed global batch the
//     throughput peaks at a small worker count and then drops (Figure 2,
//     "Fixed batch size"); growing B with c keeps per-GPU utilization high
//     and throughput rising (Figure 2, "Elastic batch size").
//
//   - Convergence vs batch size: without learning-rate scaling, larger
//     global batches need more epochs and plateau at lower accuracy
//     (Figure 3). With linear LR scaling the penalty is mild until a
//     critical batch size (§3.3.2).
//
//   - Abrupt batch-size explosion injects gradient/momentum noise: the
//     training loss spikes and needs many epochs to recover (Figure 13),
//     whereas gradual growth stays smooth (Figure 14).
package perfmodel

import (
	"fmt"
	"math"
)

// The communication substrate of the throughput model. Values are
// calibrated so the shapes of the paper's Figure 2 reproduce on the
// CIFAR10/ResNet50 profile; they stand in for NVLink / InfiniBand EDR
// plus the per-step framework overheads of PyTorch DDP.
const (
	intraBW      = 25e9  // bytes/s effective all-reduce bandwidth within a server
	crossBW      = 3e9   // bytes/s effective bandwidth when spanning servers
	latPerWorker = 0.015 // seconds of per-step synchronization cost per worker
)

// Profile describes one trainable task: a model architecture bound to a
// dataset. Profiles drive both the throughput and the convergence models.
type Profile struct {
	Name string

	// Throughput parameters.
	GradBytes      float64 // gradient volume all-reduced per step (4 bytes/param)
	SampleTime     float64 // seconds of GPU compute per sample
	KernelOverhead float64 // fixed seconds per step (kernel launches etc.)
	MaxPerGPU      int     // largest local batch that fits in GPU memory

	// Convergence parameters.
	RefBatch     int     // batch size the task was tuned for
	BaseEpochs   float64 // epochs to target accuracy at RefBatch
	AccMax       float64 // accuracy ceiling at RefBatch
	TargetAcc    float64 // validation accuracy that ends the job
	InitLoss     float64 // loss before training
	FloorLoss    float64 // asymptotic loss
	Penalty      float64 // epoch-penalty coefficient without LR scaling
	PenaltyExp   float64 // exponent on log2(B/RefBatch)
	ScaledCrit   int     // critical batch: no penalty below this with LR scaling
	ScaledCoeff  float64 // mild penalty coefficient beyond ScaledCrit
	AccLossPerX  float64 // accuracy-ceiling loss per batch doubling (no LR scaling)
	SpikeCoeff   float64 // loss-spike magnitude per doubling on abrupt rescale
	RegressCoeff float64 // effective epochs lost per squared doubling on abrupt rescale
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	switch {
	case p.SampleTime <= 0:
		return fmt.Errorf("perfmodel: %s: SampleTime %v", p.Name, p.SampleTime)
	case p.MaxPerGPU <= 0:
		return fmt.Errorf("perfmodel: %s: MaxPerGPU %d", p.Name, p.MaxPerGPU)
	case p.RefBatch <= 0:
		return fmt.Errorf("perfmodel: %s: RefBatch %d", p.Name, p.RefBatch)
	case p.BaseEpochs <= 0:
		return fmt.Errorf("perfmodel: %s: BaseEpochs %v", p.Name, p.BaseEpochs)
	case p.TargetAcc <= 0 || p.TargetAcc >= p.AccMax:
		return fmt.Errorf("perfmodel: %s: TargetAcc %v vs AccMax %v", p.Name, p.TargetAcc, p.AccMax)
	}
	return nil
}

// StepTime returns the seconds per training step for global batch B spread
// over c workers on `servers` distinct servers.
func StepTime(p Profile, B, c, servers int) float64 {
	if B <= 0 || c <= 0 {
		return math.Inf(1)
	}
	local := float64(B) / float64(c)
	compute := p.KernelOverhead + local*p.SampleTime
	if c == 1 {
		return compute
	}
	bw := intraBW
	if servers > 1 {
		bw = crossBW
	}
	ring := 2 * float64(c-1) / float64(c) * p.GradBytes / bw
	return compute + ring + latPerWorker*float64(c)
}

// Throughput returns samples/second for global batch B over c workers on
// `servers` servers (Figure 2's y-axis).
func Throughput(p Profile, B, c, servers int) float64 {
	st := StepTime(p, B, c, servers)
	if math.IsInf(st, 1) {
		return 0
	}
	return float64(B) / st
}

// serversNeeded returns the minimum number of servers for c workers given
// gpusPerServer, assuming packed placement. Scheduling code passes the real
// span; helpers like Figure 2 use the packed value.
func serversNeeded(c, gpusPerServer int) int {
	if gpusPerServer <= 0 {
		return 1
	}
	return (c + gpusPerServer - 1) / gpusPerServer
}

// PackedThroughput is Throughput with packed placement on servers of the
// given width.
func PackedThroughput(p Profile, B, c, gpusPerServer int) float64 {
	return Throughput(p, B, c, serversNeeded(c, gpusPerServer))
}

// EpochPenalty returns the multiplicative factor on epochs-to-target for
// training with global batch B. lrScaled selects the §3.3.2 regime where
// the learning rate is scaled linearly with the batch size.
func EpochPenalty(p Profile, B int, lrScaled bool) float64 {
	if B <= 0 {
		return math.Inf(1)
	}
	if lrScaled {
		crit := p.ScaledCrit
		if crit <= 0 {
			crit = 8 * p.RefBatch
		}
		if B <= crit {
			return 1
		}
		d := math.Log2(float64(B) / float64(crit))
		return 1 + p.ScaledCoeff*d*d
	}
	if B <= p.RefBatch {
		return 1
	}
	d := math.Log2(float64(B) / float64(p.RefBatch))
	return 1 + p.Penalty*math.Pow(d, p.PenaltyExp)
}

// AccCeiling returns the accuracy the task converges toward when trained
// at global batch B. Without LR scaling, large batches reduce the ceiling
// (Figure 3's 8-GPU curve plateauing low).
func AccCeiling(p Profile, B int, lrScaled bool) float64 {
	if lrScaled || B <= p.RefBatch {
		return p.AccMax
	}
	d := math.Log2(float64(B) / float64(p.RefBatch))
	ceil := p.AccMax - p.AccLossPerX*d
	if ceil < p.TargetAcc*0.5 {
		ceil = p.TargetAcc * 0.5
	}
	return ceil
}

// accRate is the exponential approach rate: accuracy reaches ~95% of its
// ceiling after BaseEpochs effective epochs.
const accRate = 3.0

// AccuracyAt returns the validation accuracy after `effEpochs` effective
// epochs of training toward the ceiling for batch B.
func AccuracyAt(p Profile, effEpochs float64, B int, lrScaled bool) float64 {
	if effEpochs <= 0 {
		return 0
	}
	ceil := AccCeiling(p, B, lrScaled)
	return ceil * (1 - math.Exp(-accRate*effEpochs/p.BaseEpochs))
}

// LossAt returns the training loss after effEpochs effective epochs, plus
// the given transient spike.
func LossAt(p Profile, effEpochs, spike float64) float64 {
	base := p.FloorLoss + (p.InitLoss-p.FloorLoss)*math.Exp(-accRate*effEpochs/p.BaseEpochs)
	return base + spike
}

// EffectiveEpochsToTarget returns the effective epochs needed for the
// accuracy to reach the target given batch B. Returns +Inf when the target
// exceeds the ceiling (the job would never converge at this batch).
func EffectiveEpochsToTarget(p Profile, B int, lrScaled bool) float64 {
	ceil := AccCeiling(p, B, lrScaled)
	if p.TargetAcc >= ceil {
		return math.Inf(1)
	}
	return -p.BaseEpochs / accRate * math.Log(1-p.TargetAcc/ceil)
}

// EpochsToTarget returns real (wall) epochs to target at constant batch B:
// effective epochs multiplied by the epoch penalty.
func EpochsToTarget(p Profile, B int, lrScaled bool) float64 {
	return EffectiveEpochsToTarget(p, B, lrScaled) * EpochPenalty(p, B, lrScaled)
}

// AbruptFactor is the single-step batch-growth factor beyond which the
// rescale injects noise into gradients/momentum (Figure 13). The paper's
// scale-up policy doubles the limit per epoch precisely to stay under it.
const AbruptFactor = 4.0

// Catalog returns the base profiles for every model in the paper's
// workload (Table 2) plus the LSTM used in the Figure 16 overhead study.
// SampleTime values approximate V100 per-sample times on the models'
// native datasets; workload generation rescales them per dataset.
func Catalog() []Profile {
	base := func(name string, params int64, st float64, maxB int, epochs, accMax float64) Profile {
		return Profile{
			Name:           name,
			GradBytes:      4 * float64(params),
			SampleTime:     st,
			KernelOverhead: 0.008,
			MaxPerGPU:      maxB,
			RefBatch:       256,
			BaseEpochs:     epochs,
			AccMax:         accMax,
			TargetAcc:      0.9 * accMax,
			InitLoss:       2.3,
			FloorLoss:      0.05,
			Penalty:        0.35,
			PenaltyExp:     1.5,
			ScaledCrit:     2048,
			ScaledCoeff:    0.15,
			AccLossPerX:    0.025,
			SpikeCoeff:     0.35,
			RegressCoeff:   1.2,
		}
	}
	ps := []Profile{
		base("alexnet", 61_000_000, 0.0006, 1024, 40, 0.80),
		base("resnet18", 11_700_000, 0.0012, 1024, 50, 0.92),
		base("resnet50", 25_600_000, 0.0040, 512, 60, 0.93),
		base("vgg16", 138_000_000, 0.0050, 256, 55, 0.90),
		base("googlenet", 6_800_000, 0.0020, 1024, 50, 0.91),
		base("inceptionv3", 23_900_000, 0.0045, 512, 65, 0.92),
		base("bert", 110_000_000, 0.0080, 64, 12, 0.88),
		base("lstm", 20_000_000, 0.0030, 512, 30, 0.85),
	}
	// NLP fine-tuning uses smaller reference batches.
	for i := range ps {
		if ps[i].Name == "bert" {
			ps[i].RefBatch = 32
			ps[i].ScaledCrit = 256
			ps[i].InitLoss = 0.9
			ps[i].FloorLoss = 0.02
		}
	}
	return ps
}

// ByName returns the catalog profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range Catalog() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("perfmodel: unknown model %q", name)
}

// CIFARResNet50 returns the profile used throughout the paper's motivating
// figures: ResNet50 on CIFAR10 (tiny images, so per-sample compute is an
// order of magnitude below ImageNet).
func CIFARResNet50() Profile {
	p, err := ByName("resnet50")
	if err != nil {
		panic(err)
	}
	p.Name = "resnet50-cifar10"
	p.SampleTime = 0.0004
	return p
}
