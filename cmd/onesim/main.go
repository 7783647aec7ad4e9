// Command onesim runs one scheduling simulation through the public ones
// SDK: a generated Table 2 workload trace replayed on a simulated GPU
// cluster under a chosen scheduler and scenario, reporting per-run and
// per-job completion statistics.
//
// Examples:
//
//	onesim -sched ones
//	onesim -sched tiresias -gpus 32 -jobs 60 -interarrival 20
//	onesim -sched ones -scenario diurnal+spot -pop 16 -verbose
//	onesim -topology 4x8,2x4 -scenario rack-drain   # mixed fleet, rack failure
//	onesim -sched tiresias -gpus 8 -scenario burst -autoscaler reactive-aggressive
//	onesim -sched ones -json | jq .mean_jct_s
//	onesim -cache-dir ~/.cache/onesim -sched ones   # rerun is instant
//	onesim -sched ones -v                           # per-cell progress on stderr
//	onesim -sched ones -metrics 2>&1 >/dev/null     # Prometheus dump on stderr
//
// With -json every outcome is machine-readable: success prints the full
// result object, and any failure (unknown scheduler or scenario, run
// error) prints {"error": "..."} to stdout — so a pipeline's jq/python
// stage always has JSON to parse — and exits non-zero. Without -json,
// errors go to stderr as plain text.
//
// The process exits non-zero on error; Ctrl-C cancels the run cleanly —
// mid-cell, within sub-second latency. With -cache-dir, completed runs
// persist and identical reruns are served from disk, byte-identical.
//
// -v streams per-cell progress lines to stderr while the run executes
// and closes with a one-line summary (cells, cache hits, wall time).
// -metrics dumps the session's telemetry registry as Prometheus text to
// stderr after the run — the same series onesd serves on GET /metrics.
// Both write only to stderr, so they compose with -json pipelines, and
// neither perturbs the simulation: results are byte-identical with or
// without them (see DESIGN.md "Observability").
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"repro/pkg/ones"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: parse flags, build a session,
// simulate, render. It returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("onesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sched        = fs.String("sched", "ones", "scheduler: "+strings.Join(ones.Schedulers(), "|"))
		scenarioName = fs.String("scenario", "steady", `world model (compose with "+", e.g. "diurnal+spot")`)
		autoscaler   = fs.String("autoscaler", "", `reactive autoscaling policy ("reactive-conservative", "reactive-aggressive", "reactive-emergency"); empty = no controller`)
		gpus         = fs.Int("gpus", 64, "cluster capacity in GPUs (4 per server); ignored with -topology")
		topology     = fs.String("topology", "", `heterogeneous cluster shape, e.g. "4x8,2x4" (COUNTxGPUS groups, one rack per group)`)
		jobs         = fs.Int("jobs", 120, "number of jobs in the trace")
		interarrival = fs.Float64("interarrival", 12, "mean seconds between arrivals")
		seed         = fs.Int64("seed", 1, "master RNG seed")
		pop          = fs.Int("pop", 32, "ONES population size K")
		cacheDir     = fs.String("cache-dir", "", "persist completed runs here; identical reruns load instead of simulating")
		verbose      = fs.Bool("verbose", false, "print per-job metrics")
		progressV    = fs.Bool("v", false, "stream per-cell progress lines to stderr, ending with a one-line summary")
		dumpMetrics  = fs.Bool("metrics", false, "dump the run's telemetry as Prometheus text to stderr after the run")
		events       = fs.Bool("events", false, "print the scheduling event log")
		asJSON       = fs.Bool("json", false, "emit the full result (or an {\"error\": ...} object) as JSON for scripting")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	topoOpt := ones.WithTopology((*gpus+3)/4, 4)
	if *topology != "" {
		topoOpt = ones.WithShape(*topology)
	}
	opts := []ones.Option{
		ones.WithScheduler(*sched),
		ones.WithScenario(*scenarioName),
		topoOpt,
		ones.WithTrace(ones.Trace{Jobs: *jobs, MeanInterarrival: *interarrival, Seed: *seed}),
		ones.WithSeed(*seed),
		ones.WithPopulation(*pop),
		ones.WithEventLog(*events),
	}
	if *autoscaler != "" {
		opts = append(opts, ones.WithAutoscaler(*autoscaler))
	}
	if *cacheDir != "" {
		cache, err := ones.NewCache(*cacheDir, func(format string, a ...any) {
			fmt.Fprintf(stderr, "onesim: "+format+"\n", a...)
		})
		if err != nil {
			return fail(stdout, stderr, *asJSON, err)
		}
		opts = append(opts, ones.WithCache(cache))
	}
	var prog *progressPrinter
	if *progressV {
		prog = &progressPrinter{w: stderr}
		opts = append(opts, ones.WithObserver(prog))
	}
	var metrics *ones.Metrics
	if *dumpMetrics {
		metrics = ones.NewMetrics()
		opts = append(opts, ones.WithMetrics(metrics))
	}
	s, err := ones.New(opts...)
	if err != nil {
		return fail(stdout, stderr, *asJSON, err)
	}
	res, err := s.Run(ctx)
	if prog != nil {
		prog.summary()
	}
	if metrics != nil {
		// Dump on every outcome: a failed or cancelled run's counters are
		// exactly when the telemetry is most interesting.
		metrics.WritePrometheus(stderr)
	}
	if err != nil {
		return fail(stdout, stderr, *asJSON, err)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(stdout, stderr, false, err)
		}
		return 0
	}

	fmt.Fprintf(stdout, "scheduler   %s\n", res.Scheduler)
	fmt.Fprintf(stdout, "scenario    %s\n", res.Scenario)
	if res.Autoscaler != "" {
		fmt.Fprintf(stdout, "autoscaler  %s (scale-ups: %d, scale-downs: %d)\n",
			res.Autoscaler, res.ScaleUps, res.ScaleDowns)
	}
	if res.Shape != "" {
		fmt.Fprintf(stdout, "topology    %s (%d GPUs", res.Shape, res.Capacity)
		for _, rc := range res.Racks {
			fmt.Fprintf(stdout, "; rack %d: %d×srv/%d GPUs", rc.Rack, rc.Servers, rc.GPUs)
		}
		fmt.Fprintf(stdout, ")\n")
	}
	fmt.Fprintf(stdout, "jobs        %d (unfinished: %d)\n", len(res.Jobs), res.Unfinished)
	fmt.Fprintf(stdout, "makespan    %.1f s\n", res.Makespan)
	fmt.Fprintf(stdout, "avg JCT     %.2f s   (median %.1f, p75 %.1f, max %.1f)\n",
		res.MeanJCT, res.JCT.Median, res.JCT.Q3, res.JCT.Max)
	fmt.Fprintf(stdout, "avg exec    %.2f s\n", res.MeanExec)
	fmt.Fprintf(stdout, "avg queue   %.2f s\n", res.MeanQueue)
	fmt.Fprintf(stdout, "reconfigs   %d\n", res.Reconfigs)
	if res.Evictions > 0 || res.CapacityEvents > 0 {
		fmt.Fprintf(stdout, "evictions   %d (capacity events: %d", res.Evictions, res.CapacityEvents)
		if res.RackDrainEvictions > 0 {
			fmt.Fprintf(stdout, "; rack-drain evictions: %d", res.RackDrainEvictions)
		}
		fmt.Fprintf(stdout, ")\n")
	}
	fmt.Fprintf(stdout, "utilization %.1f%%\n", 100*res.Utilization)
	if *verbose {
		fmt.Fprintf(stdout, "\n%6s %-26s %10s %10s %10s %10s\n", "job", "task", "submit", "jct", "exec", "queue")
		for _, j := range res.Jobs {
			fmt.Fprintf(stdout, "%6d %-26s %10.1f %10.1f %10.1f %10.1f\n",
				j.ID, j.Name, j.Submit, j.JCT, j.Exec, j.Queue)
		}
	}
	if *events {
		fmt.Fprintf(stdout, "\n%10s %-9s %6s %6s %8s\n", "time", "event", "job", "gpus", "batch")
		for _, ev := range res.Events {
			fmt.Fprintf(stdout, "%10.1f %-9s %6d %6d %8d\n", ev.Time, ev.Kind, ev.Job, ev.GPUs, ev.Batch)
		}
	}
	return 0
}

// progressPrinter implements ones.Observer for -v: one stderr line per
// cell lifecycle event while the run executes, then a one-line summary
// (cells, cache hits, wall time). Events can arrive from several worker
// goroutines, so the counters sit behind a mutex. Cached cells emit no
// cell events — they surface only as a jump in Done — which is how the
// summary separates cache hits from simulated cells.
type progressPrinter struct {
	w io.Writer

	mu       sync.Mutex
	executed int           // cells that actually simulated (cell-done events)
	total    int           // cells the batch planned (run-done)
	finished bool          // run-done arrived: every planned cell completed
	elapsed  time.Duration // run wall time (run-done)
}

// Observe implements ones.Observer.
func (p *progressPrinter) Observe(ev ones.Progress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Kind {
	case ones.KindRunStart:
		fmt.Fprintf(p.w, "onesim: run started: %d cell(s) planned\n", ev.Total)
	case ones.KindCellStart:
		fmt.Fprintf(p.w, "onesim: cell %s simulating\n", ev.Cell)
	case ones.KindCellDone:
		p.executed++
		fmt.Fprintf(p.w, "onesim: cell %s done in %.1fs (%d/%d)\n",
			ev.Cell, ev.Elapsed.Seconds(), ev.Done, ev.Total)
	case ones.KindExperimentStart:
		fmt.Fprintf(p.w, "onesim: experiment %s started\n", ev.Experiment)
	case ones.KindExperimentDone:
		fmt.Fprintf(p.w, "onesim: experiment %s done in %.1fs\n", ev.Experiment, ev.Elapsed.Seconds())
	case ones.KindRunDone:
		p.total, p.elapsed, p.finished = ev.Total, ev.Elapsed, true
	}
}

// summary prints the closing one-liner after the run returns. A planned
// cell that finished without simulating (no cell events) was served from
// the cache — memory or disk — so hits fall out as total − simulated on
// a completed run. An aborted run never reaches run-done; its partial
// count is reported without guessing at cache attribution.
func (p *progressPrinter) summary() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.finished {
		fmt.Fprintf(p.w, "onesim: aborted after %d simulated cell(s)\n", p.executed)
		return
	}
	hits := p.total - p.executed
	if hits < 0 {
		hits = 0 // more cells executed than planned: never happens, stay sane
	}
	fmt.Fprintf(p.w, "onesim: %d cell(s) (%d cache hit(s)) in %.1fs\n",
		p.total, hits, p.elapsed.Seconds())
}

// fail reports an error and returns the exit code. In JSON mode the
// error goes to STDOUT as a JSON object — a scripting pipeline reading
// onesim's output gets parseable JSON on every path, success or failure
// — while plain mode keeps the traditional stderr line.
func fail(stdout, stderr io.Writer, asJSON bool, err error) int {
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.Encode(map[string]string{"error": err.Error()})
	} else {
		fmt.Fprintln(stderr, "onesim:", err)
	}
	return 1
}
