// Package runtime is the live mini-cluster: a central controller, one
// worker manager per worker, and scaling agents executing the paper's
// elastic batch-size scaling (§3.3.1, Figures 11–12) with real goroutine
// workers training a real (synthetic) model over the collective package's
// ring all-reduce.
//
// Two reconfiguration paths are implemented:
//
//   - RescaleElastic — the paper's checkpoint-free protocol: new workers
//     initialize concurrently with ongoing training, existing workers
//     pause at a step boundary (the pause request rides on the gradient
//     all-reduce, so every rank agrees on the stopping step), everyone
//     connects to the new topology, parameters are broadcast from a
//     surviving worker, and training resumes.
//
//   - RescaleCheckpoint — the conventional baseline: pause, serialize the
//     full training state with gob, tear every worker down, re-prepare the
//     input pipeline, restart workers from scratch and reload.
//
// Both return wall-clock durations, which the Figure 16 benchmark compares.
package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/collective"
)

// Spec describes a job for the live runtime.
type Spec struct {
	Name        string
	ParamCount  int     // model parameters (floats)
	GlobalBatch int     // samples per step across all workers
	LR          float32 // SGD learning rate
	Momentum    float32 // SGD momentum coefficient
	DatasetSize int     // synthetic samples regenerated on checkpoint restart
}

// Validate reports whether the spec is runnable.
func (s Spec) Validate() error {
	switch {
	case s.ParamCount <= 0:
		return fmt.Errorf("runtime: ParamCount %d", s.ParamCount)
	case s.GlobalBatch <= 0:
		return fmt.Errorf("runtime: GlobalBatch %d", s.GlobalBatch)
	case s.LR <= 0:
		return fmt.Errorf("runtime: LR %v", s.LR)
	case s.DatasetSize <= 0:
		return fmt.Errorf("runtime: DatasetSize %d", s.DatasetSize)
	}
	return nil
}

// model is one worker's replica.
type model struct {
	params   []float32
	momentum []float32
	step     int64
}

func newModel(n int) *model {
	return &model{params: make([]float32, n), momentum: make([]float32, n)}
}

// target returns the synthetic optimum the model regresses toward; the
// training loss is the mean squared distance to it.
func target(i int) float32 { return float32(i%17)/17 - 0.5 }

// worker is one rank: a worker manager plus its scaling agent.
type worker struct {
	spec  Spec
	model *model
	comm  *collective.Comm
	local int // local batch size

	pause  atomic.Bool
	ctrl   chan ctrlMsg
	paused chan struct{} // signaled when the worker leaves its training loop
}

type ctrlMsg struct {
	kind  ctrlKind
	comm  *collective.Comm
	local int
	bcast bool
	root  int
	ack   chan struct{}
}

type ctrlKind int

const (
	ctrlResume ctrlKind = iota
	ctrlQuit
)

// run is the worker-manager goroutine: wait for control, train, repeat.
func (w *worker) run() {
	for msg := range w.ctrl {
		switch msg.kind {
		case ctrlResume:
			w.comm = msg.comm
			w.local = msg.local
			if msg.bcast {
				// Figure 12: broadcast parameters together from one of
				// the previous workers.
				_ = w.comm.Broadcast(w.model.params, msg.root)
				_ = w.comm.Broadcast(w.model.momentum, msg.root)
			}
			w.pause.Store(false)
			close(msg.ack)
			w.train()
		case ctrlQuit:
			close(msg.ack)
			return
		}
	}
}

// train steps until a pause is agreed. The pause request is appended to
// the gradient all-reduce so every rank stops after the same step — the
// paper's "pauses the user script at the end of a training step".
func (w *worker) train() {
	n := len(w.model.params)
	buf := make([]float32, n+1) // gradients + control flag
	for {
		grads := buf[:n]
		for i := range grads {
			grads[i] = w.model.params[i] - target(i)
		}
		// Simulated per-sample compute (stands in for the forward/backward
		// pass; cost proportional to the local batch).
		var sink float32
		for s := 0; s < w.local; s++ {
			sink += float32(s & 7)
		}
		_ = sink
		flag := float32(0)
		if w.pause.Load() {
			flag = 1
		}
		buf[n] = flag
		w.comm.AllReduceMean(buf)
		lr := w.spec.LR
		mu := w.spec.Momentum
		for i := range grads {
			w.model.momentum[i] = mu*w.model.momentum[i] + grads[i]
			w.model.params[i] -= lr * w.model.momentum[i]
		}
		w.model.step++
		if buf[n] > 0 { // some rank requested a pause: all stop here
			w.paused <- struct{}{}
			return
		}
	}
}

// Job is a running elastic training job.
type Job struct {
	mu      sync.Mutex
	spec    Spec
	workers []*worker
	paused  bool
	stopped bool
}

// Start launches the job on n workers: rank 0 initializes parameters
// deterministically and broadcasts them, then training begins.
func Start(spec Spec, n int) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("runtime: worker count %d", n)
	}
	j := &Job{spec: spec}
	j.workers = spawnWorkers(spec, n)
	rng := rand.New(rand.NewSource(42))
	for i := range j.workers[0].model.params {
		j.workers[0].model.params[i] = float32(rng.NormFloat64())
	}
	if err := j.resumeAll(true); err != nil {
		return nil, err
	}
	return j, nil
}

// spawnWorkers creates and starts count worker goroutines. They
// initialize their model buffers (the Figure 12 "overlap initialization
// with previous training") and then block waiting for a resume, which
// hands each its communicator and so its rank.
func spawnWorkers(spec Spec, count int) []*worker {
	ws := make([]*worker, count)
	for i := range ws {
		ws[i] = &worker{
			spec:   spec,
			model:  newModel(spec.ParamCount),
			ctrl:   make(chan ctrlMsg),
			paused: make(chan struct{}, 1),
		}
		go ws[i].run()
	}
	return ws
}

// Workers returns the current worker count.
func (j *Job) Workers() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.workers)
}

// GlobalBatch returns the current global batch size.
func (j *Job) GlobalBatch() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec.GlobalBatch
}

// pauseAllLocked stops training at the next step boundary and waits for
// every worker to leave its loop. Idempotent: a second pause without an
// intervening resume is a no-op (the workers are already parked). Callers
// hold j.mu.
func (j *Job) pauseAllLocked() {
	if j.paused {
		return
	}
	for _, w := range j.workers {
		w.pause.Store(true)
	}
	for _, w := range j.workers {
		<-w.paused
	}
	j.paused = true
}

// resumeAll reconnects every worker to a fresh topology and restarts
// training; when bcast is set, rank 0's parameters are distributed first.
func (j *Job) resumeAll(bcast bool) error {
	group, err := collective.NewGroup(len(j.workers))
	if err != nil {
		return err
	}
	local := j.spec.GlobalBatch / len(j.workers)
	if local < 1 {
		local = 1
	}
	acks := make([]chan struct{}, len(j.workers))
	for i, w := range j.workers {
		comm, err := group.Comm(i)
		if err != nil {
			return err
		}
		acks[i] = make(chan struct{})
		w.ctrl <- ctrlMsg{kind: ctrlResume, comm: comm, local: local, bcast: bcast, root: 0, ack: acks[i]}
	}
	for _, a := range acks {
		<-a
	}
	j.paused = false
	return nil
}

// quitWorkersLocked tears down the given workers.
func quitWorkers(ws []*worker) {
	for _, w := range ws {
		ack := make(chan struct{})
		w.ctrl <- ctrlMsg{kind: ctrlQuit, ack: ack}
		<-ack
	}
}

// Pause stops training at the next step boundary; every worker agrees on
// the stopping step via the control flag on the gradient all-reduce.
// Inspection methods (Steps, Loss, ParamsDigest) are exact only while
// paused or stopped.
func (j *Job) Pause() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stopped {
		return
	}
	j.pauseAllLocked()
}

// Resume restarts training after a Pause with the same topology.
func (j *Job) Resume() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stopped {
		return fmt.Errorf("runtime: job %s stopped", j.spec.Name)
	}
	return j.resumeAll(false)
}

// Stop pauses and tears the job down.
func (j *Job) Stop() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stopped {
		return
	}
	j.pauseAllLocked()
	quitWorkers(j.workers)
	j.workers = nil
	j.stopped = true
}

// Steps returns rank 0's step counter. Only meaningful while paused or
// stopped-consistent; used by tests after rescales.
func (j *Job) Steps() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.workers) == 0 {
		return 0
	}
	return j.workers[0].model.step
}

// Loss returns rank 0's current mean squared error to the synthetic
// optimum. Callers should pause first for an exact value; a racy read is
// fine for monitoring.
func (j *Job) Loss() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.workers) == 0 {
		return 0
	}
	var s float64
	params := j.workers[0].model.params
	for i, p := range params {
		d := float64(p - target(i))
		s += d * d
	}
	return s / float64(len(params))
}

// ParamsDigest returns a checksum of each worker's parameters, for
// consistency checks after reconfiguration.
func (j *Job) ParamsDigest() []float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]float64, len(j.workers))
	for i, w := range j.workers {
		var s float64
		for _, p := range w.model.params {
			s += float64(p)
		}
		out[i] = s
	}
	return out
}

// RescaleElastic executes the checkpoint-free protocol of Figures 11–12
// and returns how long the training was actually interrupted (pause →
// resume). Growth spawns and initializes the new workers BEFORE pausing,
// overlapping their setup with ongoing training.
func (j *Job) RescaleElastic(newWorkers, newGlobalBatch int) (time.Duration, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stopped {
		return 0, fmt.Errorf("runtime: job %s already stopped", j.spec.Name)
	}
	if newWorkers <= 0 || newGlobalBatch <= 0 {
		return 0, fmt.Errorf("runtime: rescale to %d workers batch %d", newWorkers, newGlobalBatch)
	}
	old := len(j.workers)
	// Step 1 (grow only): start new workers and let them initialize while
	// the previous topology keeps training.
	var joiners []*worker
	if newWorkers > old {
		joiners = spawnWorkers(j.spec, newWorkers-old)
	}
	start := time.Now()
	// Step 2: pause at a step boundary.
	j.pauseAllLocked()
	// Step 3: reshape the worker set.
	if newWorkers > old {
		j.workers = append(j.workers, joiners...)
	} else if newWorkers < old {
		quitWorkers(j.workers[newWorkers:])
		j.workers = j.workers[:newWorkers]
	}
	j.spec.GlobalBatch = newGlobalBatch
	// Step 4: reconnect and broadcast parameters from a surviving worker.
	if err := j.resumeAll(true); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// RescaleCheckpoint executes the conventional baseline: pause, serialize
// the full state, destroy every worker, re-prepare the input pipeline,
// restart from the checkpoint. Returns the training interruption time.
func (j *Job) RescaleCheckpoint(newWorkers, newGlobalBatch int) (time.Duration, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stopped {
		return 0, fmt.Errorf("runtime: job %s already stopped", j.spec.Name)
	}
	if newWorkers <= 0 || newGlobalBatch <= 0 {
		return 0, fmt.Errorf("runtime: rescale to %d workers batch %d", newWorkers, newGlobalBatch)
	}
	start := time.Now()
	j.pauseAllLocked()
	// Save.
	state := &ckpt.State{
		Step:     j.workers[0].model.step,
		Batch:    newGlobalBatch,
		Params:   j.workers[0].model.params,
		Momentum: j.workers[0].model.momentum,
	}
	blob, err := ckpt.Encode(state)
	if err != nil {
		return 0, err
	}
	// Stop: every worker process goes away.
	quitWorkers(j.workers)
	// Restart: re-prepare the input pipeline (the dominant real-world cost
	// besides CUDA context setup — data is regenerated from scratch).
	dataset := make([]float32, j.spec.DatasetSize)
	rng := rand.New(rand.NewSource(7))
	for i := range dataset {
		dataset[i] = float32(rng.NormFloat64())
	}
	_ = dataset
	// Reload.
	restored, err := ckpt.Decode(blob)
	if err != nil {
		return 0, err
	}
	j.spec.GlobalBatch = newGlobalBatch
	j.workers = spawnWorkers(j.spec, newWorkers)
	copy(j.workers[0].model.params, restored.Params)
	copy(j.workers[0].model.momentum, restored.Momentum)
	for _, w := range j.workers {
		w.model.step = restored.Step
	}
	if err := j.resumeAll(true); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
