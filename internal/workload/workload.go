// Package workload builds the paper's evaluation trace (Table 2): 50 task
// types spanning CV models on ImageNet subsets and CIFAR10, and BERT
// fine-tuning on GLUE datasets, submitted with Poisson arrivals.
//
// The paper trains on reduced dataset sizes "so that all jobs can basically
// finish within 2 hours"; the profiles here are tuned the same way — a job
// given reasonable resources completes in minutes, matching the paper's
// average-JCT scale of a few hundred seconds.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/perfmodel"
	"repro/internal/scenario"
)

// TaskClass distinguishes the workload families of Table 2.
type TaskClass string

// Task classes.
const (
	ClassCVImageNet TaskClass = "cv-imagenet"
	ClassCVCIFAR    TaskClass = "cv-cifar10"
	ClassNLP        TaskClass = "nlp"
)

// Task is one row-instance of Table 2: a model bound to a dataset subset.
type Task struct {
	Name        string            `json:"name"`
	Class       TaskClass         `json:"class"`
	Model       string            `json:"model"`
	Dataset     string            `json:"dataset"`
	DatasetSize int               `json:"dataset_size"` // samples per epoch (‖D‖)
	Classes     int               `json:"classes"`
	Profile     perfmodel.Profile `json:"profile"`
}

// Catalog returns the 50 task types of Table 2:
//
//	4 ImageNet models × 6 subset sizes      = 24
//	3 CIFAR10 models × 5 subset sizes       = 15
//	BERT × (4 COLA + 1 MRPC + 6 SST-2)      = 11
func Catalog() []Task {
	var tasks []Task

	adjust := func(model string, class TaskClass, epochs float64) perfmodel.Profile {
		p, err := perfmodel.ByName(model)
		if err != nil {
			panic(err) // catalog names are static; a miss is a programming error
		}
		p.BaseEpochs = epochs
		switch class {
		case ClassCVCIFAR:
			p.SampleTime *= 0.1 // 32×32 images vs 224×224
		case ClassNLP:
			// BERT profile already tuned in perfmodel.
		}
		return p
	}

	// CV on ImageNet subsets: 10k..20k samples, 10..20 classes.
	for _, model := range []string{"alexnet", "resnet50", "vgg16", "inceptionv3"} {
		for k := 0; k < 6; k++ {
			size := 10000 + 2000*k
			classes := 10 + 2*k
			tasks = append(tasks, Task{
				Name:        fmt.Sprintf("%s-imagenet-%dk", model, size/1000),
				Class:       ClassCVImageNet,
				Model:       model,
				Dataset:     "imagenet",
				DatasetSize: size,
				Classes:     classes,
				Profile:     adjust(model, ClassCVImageNet, 8),
			})
		}
	}

	// CV on CIFAR10 subsets: 20k..40k samples.
	for _, model := range []string{"resnet18", "vgg16", "googlenet"} {
		for k := 0; k < 5; k++ {
			size := 20000 + 5000*k
			tasks = append(tasks, Task{
				Name:        fmt.Sprintf("%s-cifar10-%dk", model, size/1000),
				Class:       ClassCVCIFAR,
				Model:       model,
				Dataset:     "cifar10",
				DatasetSize: size,
				Classes:     10,
				Profile:     adjust(model, ClassCVCIFAR, 10),
			})
		}
	}

	// BERT fine-tuning on GLUE.
	addBERT := func(dataset string, size int) {
		tasks = append(tasks, Task{
			Name:        fmt.Sprintf("bert-%s-%.1fk", dataset, float64(size)/1000),
			Class:       ClassNLP,
			Model:       "bert",
			Dataset:     dataset,
			DatasetSize: size,
			Classes:     2,
			Profile:     adjust("bert", ClassNLP, 3),
		})
	}
	for k := 0; k < 4; k++ {
		addBERT("cola", 5000+1000*k)
	}
	addBERT("mrpc", 3600)
	for k := 0; k < 6; k++ {
		addBERT("sst2", 10000+2000*k)
	}

	return tasks
}

// Job is one submission in a trace.
type Job struct {
	ID       int     `json:"id"`
	Submit   float64 `json:"submit"`    // seconds since trace start
	Task     Task    `json:"task"`      //
	ReqGPUs  int     `json:"req_gpus"`  // user-requested workers (fixed-size baselines honor this)
	ReqBatch int     `json:"req_batch"` // user-requested global batch size
}

// Trace is a submission sequence ordered by submit time.
type Trace struct {
	Seed int64 `json:"seed"`
	Jobs []Job `json:"jobs"`
}

// Config controls trace generation.
type Config struct {
	Seed             int64   // RNG seed; same seed ⇒ identical trace
	NumJobs          int     // number of submissions
	MeanInterarrival float64 // mean seconds between arrivals (1/λ0)
	MaxReqGPUs       int     // cap on the user-requested worker count (0 ⇒ 8)
	// Arrival selects the arrival process shaping the submit times. The
	// zero value is the paper's stationary Poisson process at
	// MeanInterarrival; a scenario's spec layers diurnal modulation,
	// bursts or heavy-tail interarrivals on top of the same job mix.
	Arrival scenario.ArrivalSpec
}

// DefaultConfig returns the trace configuration used by the Figure 15
// experiments: arrivals brisk enough that fixed-size gang schedulers see
// real queueing on 64 GPUs, as in the paper's evaluation.
func DefaultConfig() Config {
	return Config{Seed: 1, NumJobs: 120, MeanInterarrival: 12, MaxReqGPUs: 8}
}

// ArrivalRate returns λ, the average job arrival rate in jobs/second.
func (c Config) ArrivalRate() float64 {
	if c.MeanInterarrival <= 0 {
		return 0
	}
	return 1 / c.MeanInterarrival
}

// MaxJobs bounds the length of a generated trace, 546× the paper's
// 120-job trace: Generate allocates the whole trace up front, so an
// unbounded request from outside input could exhaust memory.
const MaxJobs = 1 << 16

// Generate builds a deterministic Poisson trace over the Table 2 catalog.
func Generate(cfg Config) (*Trace, error) {
	if cfg.NumJobs <= 0 {
		return nil, fmt.Errorf("workload: NumJobs %d", cfg.NumJobs)
	}
	if cfg.NumJobs > MaxJobs {
		return nil, fmt.Errorf("workload: NumJobs %d exceeds MaxJobs (%d)", cfg.NumJobs, MaxJobs)
	}
	if cfg.MeanInterarrival <= 0 {
		return nil, fmt.Errorf("workload: MeanInterarrival %v", cfg.MeanInterarrival)
	}
	maxGPUs := cfg.MaxReqGPUs
	if maxGPUs <= 0 {
		maxGPUs = 8
	}
	arrival := cfg.Arrival.Normalize(cfg.MeanInterarrival)
	if err := arrival.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	catalog := Catalog()
	tr := &Trace{Seed: cfg.Seed, Jobs: make([]Job, 0, cfg.NumJobs)}
	now := 0.0
	for i := 0; i < cfg.NumJobs; i++ {
		now = arrival.Next(rng, now)
		task := catalog[rng.Intn(len(catalog))]
		gpus := requestGPUs(rng, maxGPUs)
		// Users request one reference batch per worker — the "fixed local
		// batch" convention §2.2 describes as common practice.
		batch := task.Profile.RefBatch * gpus
		tr.Jobs = append(tr.Jobs, Job{
			ID:       i,
			Submit:   now,
			Task:     task,
			ReqGPUs:  gpus,
			ReqBatch: batch,
		})
	}
	return tr, nil
}

// requestGPUs draws a user GPU request. Users size distributed jobs
// generously (the §2.1 observation that people over-request to train
// faster), so multi-GPU gangs dominate: under fixed-size gang scheduling
// these requests fragment the cluster and queue, which is precisely the
// inefficiency elastic batch sizing removes.
func requestGPUs(rng *rand.Rand, maxGPUs int) int {
	r := rng.Float64()
	var g int
	switch {
	case r < 0.35:
		g = 1
	case r < 0.70:
		g = 2
	case r < 0.90:
		g = 4
	default:
		g = 8
	}
	if g > maxGPUs {
		g = maxGPUs
	}
	return g
}

// MarshalJSON-friendly round trip helpers.

// Encode serializes the trace to JSON.
func (t *Trace) Encode() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// Decode parses a trace from JSON.
func Decode(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	return &t, nil
}

// Validate checks trace invariants: ordered submissions, positive requests,
// usable profiles.
func (t *Trace) Validate() error {
	prev := math.Inf(-1)
	for i, j := range t.Jobs {
		if j.Submit < prev {
			return fmt.Errorf("workload: job %d submitted at %v before predecessor %v", j.ID, j.Submit, prev)
		}
		prev = j.Submit
		if j.ReqGPUs <= 0 || j.ReqBatch <= 0 {
			return fmt.Errorf("workload: job %d requests %d GPUs batch %d", j.ID, j.ReqGPUs, j.ReqBatch)
		}
		if j.Task.DatasetSize <= 0 {
			return fmt.Errorf("workload: job %d dataset size %d", j.ID, j.Task.DatasetSize)
		}
		if err := j.Task.Profile.Validate(); err != nil {
			return fmt.Errorf("workload: job %d: %w", i, err)
		}
	}
	return nil
}

// Summary aggregates a trace for reporting (the Table 2 view).
type Summary struct {
	Jobs       int
	ByClass    map[TaskClass]int
	ByModel    map[string]int
	MeanGPUReq float64
	Makespan   float64 // submit time of the last job
}

// Summarize computes trace composition statistics.
func (t *Trace) Summarize() Summary {
	s := Summary{
		Jobs:    len(t.Jobs),
		ByClass: make(map[TaskClass]int),
		ByModel: make(map[string]int),
	}
	var gpuSum int
	for _, j := range t.Jobs {
		s.ByClass[j.Task.Class]++
		s.ByModel[j.Task.Model]++
		gpuSum += j.ReqGPUs
		if j.Submit > s.Makespan {
			s.Makespan = j.Submit
		}
	}
	if s.Jobs > 0 {
		s.MeanGPUReq = float64(gpuSum) / float64(s.Jobs)
	}
	return s
}
