// Package analysis is the repo's static-analysis driver: a
// dependency-free (stdlib go/ast + go/parser + go/types only) loader and
// analyzer suite that machine-checks the invariants every result in this
// reproduction rests on — determinism of the simulation path, cache-key
// completeness, nil-safe telemetry handles, and lock-discipline naming —
// at build time instead of discovering violations in runtime golden
// tests.
//
// The suite is driven by cmd/oneslint. Each analyzer reports findings as
// "file:line: [analyzer] message" and the driver exits nonzero when any
// survive the //ones:allow escape hatch:
//
//	//ones:allow <analyzer> <reason>
//
// placed on the offending line or on the line directly above suppresses
// that analyzer's findings there; the reason is mandatory, so every
// exemption documents itself. See DESIGN.md ("Static analysis") for the
// analyzer catalog.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line: [analyzer] form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package: the unit an analyzer runs
// over. Test files (_test.go) are excluded — the invariants the suite
// pins govern shipped code, and tests are a blanket-exempt domain.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string // short lowercase id, used in reports and //ones:allow
	Doc  string // one-line description for -list
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) run and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detrand, CellKey, NilObs, LockedConv}
}

// byName resolves analyzer names; unknown names return nil.
func byName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to every package, filters the findings
// through the packages' //ones:allow directives, and returns the
// survivors sorted by position. Malformed directives are themselves
// findings — a typo'd analyzer name or a missing reason must not
// silently disable a check.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range pkgs {
		allows, bad := collectAllows(pkg)
		all = append(all, bad...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			for _, d := range pass.diags {
				if !allows.covers(d) {
					all = append(all, d)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}
