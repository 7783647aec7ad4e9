// Package repro is a from-scratch Go reproduction of "Online Evolutionary
// Batch Size Orchestration for Scheduling Deep Learning Workloads in GPU
// Clusters" (ONES, SC '21).
//
// The paper's scheduler — an online evolutionary search over per-GPU
// batch-size genomes, steered by a Beta-regression progress predictor and
// executed through checkpoint-free elastic batch scaling — lives under
// internal/, together with every substrate it needs: a schedule-genome
// cluster model, an analytic DL performance model, a Table 2 workload
// generator, a discrete-event cluster simulator, the DRL/Tiresias/Optimus
// baselines, a live goroutine mini-cluster with a real ring all-reduce,
// and the statistics of the paper's evaluation. The evaluation itself
// runs through internal/engine — a parallel experiment engine whose
// sharded runner fans independent simulation cells across a cached
// worker pool — and internal/experiments, which lists every figure and
// table by name in paper order.
//
// Other programs embed the system through pkg/ones, the public SDK:
// context-aware sessions built from functional options, streaming
// progress observers, typed sentinel errors and a stable Result view.
// Every command and example below drives pkg/ones only.
//
// Entry points:
//
//	pkg/ones         — the public SDK (start here)
//	cmd/onesim       — run one simulation (-json for scripting)
//	cmd/tracegen     — generate workload traces
//	cmd/experiments  — regenerate every table and figure
//	examples/        — runnable SDK walkthroughs
//
// The benchmarks in bench_test.go regenerate each experiment through the
// testing harness; see DESIGN.md for the experiment-to-module index and
// EXPERIMENTS.md for measured-vs-paper results.
package repro
