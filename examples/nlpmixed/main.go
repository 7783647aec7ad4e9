// nlpmixed studies scheduling scalability on a mixed CV+NLP trace: the
// same job stream replayed on clusters of 16 and 64 GPUs (the Figure
// 17/18 sweep, condensed), driven through the public ones SDK. The
// session's worker pool fans the eight scheduler×capacity cells across
// every core, and the Observer streams per-cell progress while they run.
// It shows how ONES's advantage over the baselines widens with more free
// capacity to orchestrate.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pkg/ones"
)

func main() {
	s, err := ones.New(
		ones.WithQuickScale(),
		ones.WithSeed(5),
		ones.WithTrace(ones.Trace{Jobs: 40}),
		ones.WithPopulation(12),
		ones.WithCapacities(16, 64),
		ones.WithObserver(ones.ObserverFunc(func(p ones.Progress) {
			if p.Kind == ones.KindCellDone {
				fmt.Printf("  cell %-24s %6.2fs  (%d done)\n", p.Cell, p.Elapsed.Seconds(), p.Done)
			}
		})),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sweeping cluster capacity over the same 40-job CV+NLP trace (%d workers)…\n", s.Workers())
	// One call runs every capacity×scheduler cell the two figures declare
	// — shared cells simulate once — then renders both from those
	// results.
	results, err := s.RunExperiments(context.Background(), "fig17", "fig18")
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Println()
		fmt.Print(r.Output)
	}
	fmt.Println("\n(values > 1.00 are the factor by which the baseline's mean JCT exceeds ONES's)")
}
