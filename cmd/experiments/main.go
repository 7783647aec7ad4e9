// Command experiments regenerates the paper's tables and figures through
// the public ones SDK. Experiments are selected by registry name; their
// declared simulation cells run as one batch across the session's worker
// pool, and each experiment then renders from the results of its own
// cells, so runs shared between figures (Fig 15, Fig 17, Fig 18,
// Table 4) execute exactly once and rendering simulates nothing.
// Progress and timing go to stderr (streamed through the SDK's Observer
// interface); stdout carries only the tables and figures, byte-identical
// for a given seed at any -parallel setting. Ctrl-C cancels cleanly,
// mid-cell or between renders: the command prints "context canceled",
// exits 1 and writes nothing to stdout.
//
// Examples:
//
//	experiments -exp fig15            # the headline scheduler comparison
//	experiments -exp all -quick       # everything, at smoke-test scale
//	experiments -exp fig17,fig18      # the capacity sweep, one warm pass
//	experiments -list                 # what can run
//	experiments -exp all -parallel 1  # serial baseline for timing
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/pkg/ones"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiments to run: comma-separated registry names, or \"all\"")
		list     = flag.Bool("list", false, "list registered experiments and exit")
		quick    = flag.Bool("quick", false, "shrink traces and populations for a fast pass")
		seed     = flag.Int64("seed", 1, "master RNG seed (traces and per-cell scheduler seeds derive from it)")
		jobs     = flag.Int("jobs", 0, "override trace length")
		pop      = flag.Int("pop", 0, "override ONES population size")
		parallel = flag.Int("parallel", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		quiet    = flag.Bool("quiet", false, "suppress progress and timing output on stderr")
	)
	flag.Parse()

	if *list {
		for _, e := range ones.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name, e.Title)
		}
		return
	}

	var names []string
	if strings.EqualFold(*exp, "all") {
		for _, e := range ones.Experiments() {
			names = append(names, e.Name)
		}
	} else {
		for _, name := range strings.Split(strings.ToLower(*exp), ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "experiments: nothing selected")
		os.Exit(2)
	}

	progress := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}

	opts := []ones.Option{
		ones.WithSeed(*seed),
		ones.WithWorkers(*parallel),
		ones.WithObserver(ones.ObserverFunc(func(p ones.Progress) {
			switch p.Kind {
			case ones.KindRunStart:
				if p.Total > p.Done {
					progress("warming %d simulation cells…\n", p.Total-p.Done)
				}
			case ones.KindCellDone:
				progress("  cell %-24s %8.2fs\n", p.Cell, p.Elapsed.Seconds())
			case ones.KindExperimentDone:
				progress("[%s] %.2fs\n", p.Experiment, p.Elapsed.Seconds())
			}
		})),
	}
	if *quick {
		// Scale first so explicit -jobs/-pop overrides below still win.
		opts = append([]ones.Option{ones.WithQuickScale()}, opts...)
	}
	if *jobs > 0 {
		opts = append(opts, ones.WithTrace(ones.Trace{Jobs: *jobs}))
	}
	if *pop > 0 {
		opts = append(opts, ones.WithPopulation(*pop))
	}

	s, err := ones.New(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	progress("running %d experiments on %d workers…\n", len(names), s.Workers())
	results, err := s.RunExperiments(ctx, names...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	for _, r := range results {
		fmt.Println(r.Output)
	}
	progress("total %.2fs (%d simulation cells)\n", time.Since(start).Seconds(), s.SimulatedCells())
}
