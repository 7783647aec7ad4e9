package engine

import "repro/internal/simulator"

// Experiment is one named, self-describing figure or table of the paper's
// evaluation.
type Experiment struct {
	// Name is the flag-facing identifier ("fig15", "table4", …).
	Name string
	// Title is a one-line description shown by -list.
	Title string
	// Cells declares the simulation runs the experiment consumes, in the
	// order Run reads them, so a driver can run every selected
	// experiment's cells in one batch at full parallelism before
	// rendering anything. Nil when the experiment needs no simulation.
	Cells func(p Params) []Cell
	// Run renders the experiment from normalized params and the results
	// of its declared cells: res[i] is the result of Cells(p)[i] (nil
	// without cells). It simulates nothing.
	Run func(p Params, res []*simulator.Result) (string, error)
}

// DeclaredCells gathers the declared simulation dependencies of the given
// experiments, deduplicated, in first-declaration order and normalized
// against p — the batch a driver hands to Runner.Results.
func DeclaredCells(exps []Experiment, p Params) []Cell {
	seen := make(map[Cell]bool)
	var cells []Cell
	for _, e := range exps {
		if e.Cells == nil {
			continue
		}
		for _, c := range e.Cells(p) {
			c = c.Normalize(p)
			if seen[c] {
				continue
			}
			seen[c] = true
			cells = append(cells, c)
		}
	}
	return cells
}
