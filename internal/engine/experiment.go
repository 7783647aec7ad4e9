package engine

import "context"

// Experiment is one named, self-describing figure or table of the paper's
// evaluation.
type Experiment struct {
	// Name is the flag-facing identifier ("fig15", "table4", …).
	Name string
	// Title is a one-line description shown by -list.
	Title string
	// Cells declares the simulation runs the experiment consumes, so a
	// driver can prewarm the shared cache at full parallelism before
	// rendering anything. Nil when the experiment needs no simulation.
	Cells func(p Params) []Cell
	// Run renders the experiment (reading simulations through r's cache).
	// The context cancels pending simulation work at cell boundaries.
	Run func(ctx context.Context, r *Runner) (string, error)
}

// DeclaredCells gathers the declared simulation dependencies of the given
// experiments, deduplicated, in first-declaration order and normalized
// against p — the prewarm set a driver hands to Runner.Results.
func DeclaredCells(exps []Experiment, p Params) []Cell {
	seen := make(map[Cell]bool)
	var cells []Cell
	for _, e := range exps {
		if e.Cells == nil {
			continue
		}
		for _, c := range e.Cells(p) {
			c = c.normalize(p)
			if seen[c] {
				continue
			}
			seen[c] = true
			cells = append(cells, c)
		}
	}
	return cells
}
