package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// keptForTests lists the declarations that only tests use, each with the
// reason it stays. Every one either reads state that non-test code
// reaches, wraps non-test code, or is a sentinel error that callers match
// with errors.Is; anything else goes. An entry whose declaration is gone,
// or that non-test code now uses, is stale and fails
// TestEveryDeclarationHasACaller, so the list shrinks with the code.
var keptForTests = map[string]string{
	// Oracles: independent computations tests check results against.
	"autoscale.Signals.Smoothed":        "oracle: TestAnalyzerSustainedHighTrigger and TestAnalyzerSpikeRejection check the windowed EMA through it",
	"cluster.Schedule.Fragments":        "oracle: the reorder tests assert contiguity with it",
	"perfmodel.EpochsToTarget":          "oracle: the convergence tests check Trainer progress against it",
	"predictor.Predictor.LogLikelihood": "oracle: the fit test checks a refit raises it",

	// Accessors: read state that non-test code keeps.
	"collective.Comm.Rank":             "accessor: the collective tests address ranks",
	"evolution.Engine.Population":      "accessor: the evolution tests inspect the retained genomes",
	"obs.Registry.GaugeValue":          "accessor: telemetry tests read gauges that non-test code sets",
	"perfmodel.Trainer.Profile":        "accessor: the trainer tests read the profile it was built with",
	"perfmodel.Trainer.Batch":          "accessor: the trainer tests read the batch size set by Resize",
	"predictor.Predictor.TrainingSize": "accessor: the predictor and ONES tests count ingested samples",
	"predictor.Predictor.Fits":         "accessor: the predictor and ONES tests count refits",
	"runtime.Job.GlobalBatch":          "accessor: the live-runtime tests read a job's batch after rescaling",
	"schedulers.ONES.Predictor":        "accessor: the ONES tests inspect the predictor it trains",
	"stats.BoxStats.N":                 "accessor: TestBoxKnownValues checks the sample count Box records",
	"stats.WilcoxonResult.N":           "accessor: TestWilcoxonDropsZeroDifferences checks zero differences leave the sample",
	"stats.WilcoxonResult.TieCount":    "accessor: TestWilcoxonHandlesTies checks the tied differences Wilcoxon counts",
	"stats.WilcoxonResult.W":           "accessor: TestWilcoxonDropsZeroDifferences and TestWilcoxonHandlesTies check the hand-worked statistic",
	"stats.WilcoxonResult.Z":           "accessor: TestWilcoxonDropsZeroDifferences and TestWilcoxonHandlesTies check the hand-worked score",

	// Wrappers: thin exported entry points over non-test code.
	"evolution.Score":            "wrapper: scores one genome on a fresh scratch",
	"evolution.Refresh":          "wrapper: the refresh operator on a fresh scratch",
	"evolution.Crossover":        "wrapper: the crossover operator on a fresh scratch",
	"evolution.Mutate":           "wrapper: the mutation operator on a fresh scratch",
	"ones.Session.RunExperiment": "wrapper: README.md and examples/quickstart/README.md document it as the entry point; TestRunExperimentRenders runs it",
	"scenario.ArrivalSpec.Times": "wrapper: n steps of Next, the draw Generate makes per job",
	"simulator.Run":              "wrapper: RunContext without a context",
	"workload.DefaultConfig":     "wrapper: the default trace parameters",

	// Error contract: sentinels callers match with errors.Is.
	"ones.ErrIncompatibleScenarios": "error contract: TestNewRejectsIncompatibleComposition matches it with errors.Is",
	"ones.ErrUnknownExperiment":     "error contract: TestRunExperimentUnknownName matches it with errors.Is",
}

// TestEveryDeclarationHasACaller fails on any package-level func, type,
// var or const, method or struct field, outside main packages, that no
// non-test code uses. A use from inside the declaration itself
// (recursion) does not count. Three rules decide what a use is and what
// is checked:
//
//  1. A store is not a use. A field is stored, not used, where it is the
//     selector on the left of =, op=, ++ or --, or the key of a keyed
//     composite literal; an unkeyed composite literal stores every field
//     it sets. Every other use is a read: &x.f, x.f passed as an
//     argument, x.f[i] = v. Tagged fields (encoding/json reads them) and
//     embedded fields are exempt.
//  2. pkg/ is checked too. Its funcs, methods, types, vars and consts
//     need a non-test use like any other; the walk loads cmd/, examples/
//     and the nested onesbench/ module, so their uses count. Exported
//     fields of pkg/ types are exempt: they are the data model embedders
//     read.
//  3. The interface exemption needs the interface. A method is exempt
//     only when its receiver type, or a pointer to it, implements an
//     interface the code mentions that declares the method. String()
//     string is always exempt: fmt finds it without the code naming
//     fmt.Stringer.
func TestEveryDeclarationHasACaller(t *testing.T) {
	decls := declarations(t, filepath.Join("..", ".."))
	for _, k := range slices.Sorted(maps.Keys(decls)) {
		d := decls[k]
		if _, kept := keptForTests[k]; !d.used && !kept {
			t.Errorf("%s: %s has no caller outside tests; delete it or list it in keptForTests with a reason", d.pos, k)
		}
	}
	for k, reason := range keptForTests {
		d, ok := decls[k]
		switch {
		case reason == "":
			t.Errorf("keptForTests[%q] gives no reason", k)
		case !ok:
			t.Errorf("keptForTests[%q] is stale: no such declaration", k)
		case d.used:
			t.Errorf("keptForTests[%q] is stale: non-test code uses it", k)
		}
	}
}

// TestCallersFixture runs the same check over a small module holding,
// for each of the three rules, declarations it must report and
// declarations it must not, so reverting any one rule fails here even
// when the repository has nothing left for that rule to catch.
func TestCallersFixture(t *testing.T) {
	want := []string{
		"api.Orphan",           // rule 2: a pkg/ func with no caller
		"store.Counters.bump",  // rule 1: only incremented
		"store.Counters.keyed", // rule 1: only set in a keyed literal
		"store.Counters.set",   // rule 1: only assigned
		"store.Group.Size",     // rule 3: shares only a name with Sizer.Size
		"store.Pair.a",         // rule 1: only set in an unkeyed literal
		"store.Pair.b",         // rule 1: likewise
	}
	var got []string
	for k, d := range declarations(t, filepath.Join("testdata", "callers")) {
		if !d.used {
			got = append(got, k)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("unused declarations in the fixture:\n got %v\nwant %v", got, want)
	}
}

// declaration is one checked declaration: where it is, and whether
// non-test code uses it.
type declaration struct {
	pos  token.Position
	used bool
}

// declarations loads every package under the module root and returns
// each declaration TestEveryDeclarationHasACaller checks, keyed
// "package.Name" (methods and fields "package.Type.Name").
func declarations(t *testing.T, root string) map[string]declaration {
	t.Helper()
	l := testLoader(t, root)
	pkgs, err := l.Load("...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	type span struct{ pos, end token.Pos }
	decl := make(map[types.Object]span)
	refs := make(map[types.Object][]token.Pos)
	var ifaces []*types.Interface
	seen := make(map[types.Type]bool)
	var mention func(types.Type)
	mention = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Named:
			if iface, ok := typ.Underlying().(*types.Interface); ok {
				mention(iface)
			}
		case *types.Interface:
			if typ.NumMethods() > 0 {
				ifaces = append(ifaces, typ)
			}
		case *types.Map:
			mention(typ.Key())
			mention(typ.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			mention(typ.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{typ.Params(), typ.Results()} {
				for i := range tup.Len() {
					mention(tup.At(i).Type())
				}
			}
		case *types.TypeParam:
			mention(typ.Constraint())
		}
	}
	for _, p := range pkgs {
		stores := storedFields(p)
		for id, obj := range p.Info.Uses {
			obj = origin(obj)
			mention(obj.Type())
			if !stores[id] {
				refs[obj] = append(refs[obj], id.Pos())
			}
		}
		for _, tv := range p.Info.Types {
			mention(tv.Type)
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decl[p.Info.Defs[d.Name]] = span{d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decl[p.Info.Defs[s.Name]] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decl[p.Info.Defs[n]] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}
	used := func(obj types.Object) bool {
		own := decl[obj]
		for _, pos := range refs[obj] {
			if pos < own.pos || pos >= own.end {
				return true
			}
		}
		return false
	}
	// viaInterface reports whether m, a method of named, may be called
	// through an interface: named or *named implements a mentioned
	// interface declaring m, or m is String() string.
	viaInterface := func(named *types.Named, m *types.Func) bool {
		sig := m.Type().(*types.Signature)
		if m.Name() == "String" && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
			types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
			return true
		}
		for _, iface := range ifaces {
			if declares(iface, m.Name()) && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
		return false
	}

	decls := make(map[string]declaration)
	add := func(p *Package, key string, obj types.Object) {
		if obj.Name() != "_" {
			decls[p.Types.Name()+"."+key] = declaration{p.Fset.Position(obj.Pos()), used(obj)}
		}
	}
	for _, p := range pkgs {
		if p.Types.Name() == "main" {
			continue
		}
		public := strings.HasPrefix(p.ImportPath, l.ModulePath+"/pkg/")
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			add(p, name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); !viaInterface(named, m) {
					add(p, name+"."+m.Name(), m)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					f := st.Field(i)
					if !f.Embedded() && st.Tag(i) == "" && !(public && f.Exported()) {
						add(p, name+"."+f.Name(), f)
					}
				}
			}
		}
	}
	return decls
}

// storedFields returns the identifiers in p that name a field being
// stored rather than read: the selector on the left of an assignment or
// an increment, or the key of a keyed struct literal.
func storedFields(p *Package) map[*ast.Ident]bool {
	stores := make(map[*ast.Ident]bool)
	mark := func(id *ast.Ident) {
		if v, ok := p.Info.Uses[id].(*types.Var); ok && v.IsField() {
			stores[id] = true
		}
	}
	markSel := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			mark(sel.Sel)
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markSel(lhs)
				}
			case *ast.IncDecStmt:
				markSel(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					mark(id)
				}
			}
			return true
		})
	}
	return stores
}

// declares reports whether iface has a method named name.
func declares(iface *types.Interface, name string) bool {
	for i := range iface.NumMethods() {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
