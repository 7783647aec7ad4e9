// Package predictor implements the paper's online training-progress
// predictor (§3.2.1): the progress ρ ∈ (0, 1) of a job is modeled as a Beta
// random variable
//
//	ρ ~ Be(α, β),   α = Y_processed/‖D‖,   β = max(A·x + b, 1)
//
// where α approximates the processed epochs and β the epochs still to
// process. The regression parameters (A, b) are fitted by maximizing the
// Beta log marginal likelihood over a bounded, uniformly-sampled reservoir
// of data points harvested from completed jobs.
//
// The input features are the paper's x = {‖D‖, L_initial, Y_processed,
// r_loss, accuracy}.
package predictor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/mathx"
)

// NumFeatures is the dimensionality of the regression input.
const NumFeatures = 5

// Features is the predictor input x for one observation of one job.
type Features struct {
	DatasetSize float64 // ‖D‖, samples per epoch
	InitLoss    float64 // loss before training
	Processed   float64 // Y_processed, samples processed so far
	LossRatio   float64 // r_loss = 1 − current/initial loss
	Accuracy    float64 // current validation accuracy
}

// vector flattens the features for the linear model.
func (f Features) vector() [NumFeatures]float64 {
	return [NumFeatures]float64{f.DatasetSize, f.InitLoss, f.Processed, f.LossRatio, f.Accuracy}
}

// Sample is one training point: features observed at some moment of a
// (now completed) job, labeled with the true progress at that moment.
type Sample struct {
	X        Features
	Progress float64 // true ρ ∈ (0, 1)
}

// Dist is a fitted Beta progress distribution for one job.
type Dist struct {
	Alpha, Beta float64
}

// Mean returns E[ρ].
func (d Dist) Mean() float64 { return mathx.BetaMean(d.Alpha, d.Beta) }

// CI returns the central confidence interval covering `level` (e.g. 0.9)
// of the distribution's mass.
func (d Dist) CI(level float64) (lo, hi float64) {
	tail := (1 - level) / 2
	return mathx.BetaQuantile(tail, d.Alpha, d.Beta),
		mathx.BetaQuantile(1-tail, d.Alpha, d.Beta)
}

// Sample draws one ρ from the distribution (Algorithm 1, line 2).
func (d Dist) Sample(rng *rand.Rand) float64 {
	rho := mathx.SampleBeta(rng, d.Alpha, d.Beta)
	// Keep the draw strictly inside (0, 1): downstream scores divide by ρ.
	return mathx.Clamp(rho, 1e-6, 1-1e-6)
}

// Config tunes the predictor.
type Config struct {
	ReservoirCap int     // max retained training samples (paper: limited size)
	LearnRate    float64 // gradient-ascent step
	FitIters     int     // gradient iterations per refit
	PriorEpochs  float64 // initial bias: epochs-to-process guess before any data
}

// DefaultConfig returns sensible defaults.
func DefaultConfig() Config {
	return Config{ReservoirCap: 2048, LearnRate: 0.05, FitIters: 200, PriorEpochs: 12}
}

// Predictor is the online Beta-regression model. It is safe for concurrent
// use.
type Predictor struct {
	mu sync.Mutex

	cfg Config
	rng *rand.Rand

	weights [NumFeatures]float64
	bias    float64

	// Feature standardization, recomputed at each fit.
	mean, std [NumFeatures]float64

	reservoir []Sample
	seen      int  // total samples offered (for reservoir sampling)
	fits      int  // number of refits performed
	stale     bool // the last AddCompletedJob's refit has not run yet

	fitScratch []fitSample // reused per-fit cache of weight-independent terms
}

// fitSample caches the per-sample terms of the likelihood gradient that do
// not depend on the weights: the standardized feature vector, α and
// ln(1−ρ). They are constant across one fit's gradient iterations.
type fitSample struct {
	z           [NumFeatures]float64
	alpha       float64
	logOneMinus float64
}

// New returns a predictor seeded deterministically.
func New(seed int64, cfg Config) *Predictor {
	if cfg.ReservoirCap <= 0 {
		cfg.ReservoirCap = DefaultConfig().ReservoirCap
	}
	if cfg.LearnRate <= 0 {
		cfg.LearnRate = DefaultConfig().LearnRate
	}
	if cfg.FitIters <= 0 {
		cfg.FitIters = DefaultConfig().FitIters
	}
	if cfg.PriorEpochs <= 0 {
		cfg.PriorEpochs = DefaultConfig().PriorEpochs
	}
	p := &Predictor{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	p.bias = cfg.PriorEpochs
	for i := range p.std {
		p.std[i] = 1
	}
	return p
}

// TrainingSize returns the current reservoir occupancy.
func (p *Predictor) TrainingSize() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.reservoir)
}

// Fits returns how many refits have run (one per completed job).
func (p *Predictor) Fits() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refitLocked()
	return p.fits
}

// AddCompletedJob ingests the per-epoch log of a finished job (paper: "each
// time when a job is completed, we train the model") and refits. Samples
// are reservoir-sampled so the training set stays bounded and approximately
// uniform over history.
//
// The refit is deferred until the model is next read (Predict,
// LogLikelihood, Fits) or the next job is added, whichever comes first,
// so every refit still sees exactly the reservoir this call leaves, and a
// refit nothing reads never runs.
func (p *Predictor) AddCompletedJob(logs []Sample) error {
	for _, s := range logs {
		if s.Progress <= 0 || s.Progress >= 1 {
			return fmt.Errorf("predictor: progress %v outside (0,1)", s.Progress)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refitLocked()
	for _, s := range logs {
		p.seen++
		if len(p.reservoir) < p.cfg.ReservoirCap {
			p.reservoir = append(p.reservoir, s)
		} else if k := p.rng.Intn(p.seen); k < p.cfg.ReservoirCap {
			p.reservoir[k] = s
		}
	}
	p.stale = true
	return nil
}

// refitLocked runs the refit the last AddCompletedJob deferred, if any.
func (p *Predictor) refitLocked() {
	if p.stale {
		p.stale = false
		p.fitLocked()
	}
}

// fitLocked runs gradient ascent on the Beta log marginal likelihood.
// Only β = max(A·z + b, 1) depends on the parameters (z is the
// standardized feature vector), so
//
//	∂ℓ/∂β = ln(1−ρ) − ψ(β) + ψ(α+β)
//
// and the chain rule through the max gives a zero gradient whenever the
// linear response is clamped at 1.
func (p *Predictor) fitLocked() {
	if len(p.reservoir) == 0 {
		return
	}
	p.standardizeLocked()

	// Per-sample quantities that do not depend on the weights — the
	// standardized features, α and ln(1−ρ) — are invariant across the
	// gradient iterations (mean/std are fixed for this fit), so hoist
	// them out of the loop instead of recomputing them FitIters times.
	if cap(p.fitScratch) < len(p.reservoir) {
		p.fitScratch = make([]fitSample, len(p.reservoir))
	}
	cached := p.fitScratch[:len(p.reservoir)]
	for i, s := range p.reservoir {
		cached[i] = fitSample{
			z:           p.normalizeLocked(s.X.vector()),
			alpha:       alphaOf(s.X),
			logOneMinus: math.Log(1 - s.Progress),
		}
	}

	n := float64(len(p.reservoir))
	for iter := 0; iter < p.cfg.FitIters; iter++ {
		var gradW [NumFeatures]float64
		var gradB float64
		for i := range cached {
			s := &cached[i]
			lin := p.bias
			for i, zi := range s.z {
				lin += p.weights[i] * zi
			}
			if lin < 1 {
				continue // clamped: zero gradient
			}
			beta := lin
			g := s.logOneMinus - mathx.Digamma(beta) + mathx.Digamma(s.alpha+beta)
			for i, zi := range s.z {
				gradW[i] += g * zi
			}
			gradB += g
		}
		step := p.cfg.LearnRate
		for i := range p.weights {
			p.weights[i] += step * gradW[i] / n
		}
		p.bias += step * gradB / n
	}
	p.fits++
}

// standardizeLocked recomputes per-feature mean/std over the reservoir.
func (p *Predictor) standardizeLocked() {
	var sum, sumsq [NumFeatures]float64
	for _, s := range p.reservoir {
		v := s.X.vector()
		for i, x := range v {
			sum[i] += x
			sumsq[i] += x * x
		}
	}
	n := float64(len(p.reservoir))
	for i := range sum {
		m := sum[i] / n
		variance := sumsq[i]/n - m*m
		if variance < 1e-12 {
			variance = 1
		}
		p.mean[i] = m
		p.std[i] = math.Sqrt(variance)
	}
}

func (p *Predictor) normalizeLocked(v [NumFeatures]float64) [NumFeatures]float64 {
	var z [NumFeatures]float64
	for i := range v {
		z[i] = (v[i] - p.mean[i]) / p.std[i]
	}
	return z
}

// alphaOf returns α = Y_processed/‖D‖ thresholded at 1 (the paper applies
// a threshold to both α and β to keep the Beta unimodal).
func alphaOf(x Features) float64 {
	if x.DatasetSize <= 0 {
		return 1
	}
	a := x.Processed / x.DatasetSize
	if a < 1 {
		a = 1
	}
	return a
}

// Predict returns the progress distribution for a job with the given
// current features.
func (p *Predictor) Predict(x Features) Dist {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refitLocked()
	lin := p.bias
	z := p.normalizeLocked(x.vector())
	for i, zi := range z {
		lin += p.weights[i] * zi
	}
	beta := lin
	if beta < 1 {
		beta = 1
	}
	return Dist{Alpha: alphaOf(x), Beta: beta}
}

// LogLikelihood evaluates the mean Beta log-likelihood of the current model
// over the reservoir — used by tests and the fit-quality report.
func (p *Predictor) LogLikelihood() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refitLocked()
	if len(p.reservoir) == 0 {
		return 0
	}
	var ll float64
	for _, s := range p.reservoir {
		z := p.normalizeLocked(s.X.vector())
		lin := p.bias
		for i, zi := range z {
			lin += p.weights[i] * zi
		}
		if lin < 1 {
			lin = 1
		}
		ll += mathx.BetaLogPDF(s.Progress, alphaOf(s.X), lin)
	}
	return ll / float64(len(p.reservoir))
}
