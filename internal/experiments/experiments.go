// Package experiments defines every figure and table of the paper's
// evaluation as a named engine.Experiment. Drivers select experiments
// by name (Get) or take them all in paper order (All), run their
// declared simulation cells through a parallel engine.Runner, and
// render each from the results of its own cells.
package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/engine"
)

// ErrUnknown is wrapped by Get for unknown names; match it with
// errors.Is.
var ErrUnknown = errors.New("experiments: unknown experiment")

// all lists the experiments in paper order — the order `-exp all`
// renders in — followed by the beyond-the-paper extensions.
var all = []engine.Experiment{
	fig2, fig3, fig6, table2, table3, fig13, fig14, fig15, table4,
	fig16, fig17, fig18, scenarioSweep, hetero, reactive,
}

// All returns every experiment in paper order.
func All() []engine.Experiment { return append([]engine.Experiment(nil), all...) }

// Get returns the named experiment or an ErrUnknown error listing the
// known names.
func Get(name string) (engine.Experiment, error) {
	for _, e := range all {
		if e.Name == name {
			return e, nil
		}
	}
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	return engine.Experiment{}, fmt.Errorf("%w %q (known: %s)", ErrUnknown, name, strings.Join(names, ", "))
}
