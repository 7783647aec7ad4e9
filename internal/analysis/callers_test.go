package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptForTests lists the declarations that only tests reference, each
// with the reason it stays. Every one either reads state that non-test
// code reaches or wraps non-test code; anything else goes. An entry whose
// declaration is gone, or that non-test code now references, is stale and
// fails TestEveryDeclarationHasACaller, so the list shrinks with the code.
var keptForTests = map[string]string{
	// Oracles: independent computations tests check results against.
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

	// Wrappers: thin exported entry points over non-test code.
	"evolution.Score":            "wrapper: scores one genome on a fresh scratch",
	"evolution.Refresh":          "wrapper: the refresh operator on a fresh scratch",
	"evolution.Crossover":        "wrapper: the crossover operator on a fresh scratch",
	"evolution.Mutate":           "wrapper: the mutation operator on a fresh scratch",
	"scenario.ArrivalSpec.Times": "wrapper: n steps of Next, the draw Generate makes per job",
	"simulator.Run":              "wrapper: RunContext without a context",
	"workload.DefaultConfig":     "wrapper: the default trace parameters",

	// Test clock.
	"servecache.Cache.SetClock": "test clock: TTL tests step time without sleeping",
}

// TestEveryDeclarationHasACaller fails on any package-level func, type,
// var or const, method or struct field, outside main packages and the
// public pkg/ tree, that no non-test code references. A reference from
// inside the declaration itself (recursion) does not count. Exempt are
// methods named like a method of an interface type the code mentions
// (they may be called through it), embedded fields, and tagged struct
// fields (encoding/json reads them).
func TestEveryDeclarationHasACaller(t *testing.T) {
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	type span struct{ pos, end token.Pos }
	decl := make(map[types.Object]span)
	refs := make(map[types.Object][]token.Pos)
	ifaceMethods := make(map[string]bool)
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
			for i := range typ.NumMethods() {
				ifaceMethods[typ.Method(i).Name()] = true
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
		for id, obj := range p.Info.Uses {
			obj = origin(obj)
			refs[obj] = append(refs[obj], id.Pos())
			mention(obj.Type())
		}
		for expr, tv := range p.Info.Types {
			mention(tv.Type)
			// An unkeyed struct literal sets every field without naming one.
			lit, ok := expr.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				continue
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
				continue
			}
			if st, ok := tv.Type.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					refs[st.Field(i)] = append(refs[st.Field(i)], lit.Pos())
				}
			}
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
	called := func(obj types.Object) bool {
		own := decl[obj]
		for _, pos := range refs[obj] {
			if pos < own.pos || pos >= own.end {
				return true
			}
		}
		return false
	}

	// Every candidate, by key, with whether non-test code references it.
	type candidate struct {
		pos    token.Position
		called bool
	}
	cands := make(map[string]candidate)
	add := func(p *Package, key string, obj types.Object) {
		if obj.Name() != "_" {
			cands[p.Types.Name()+"."+key] = candidate{p.Fset.Position(obj.Pos()), called(obj)}
		}
	}
	for _, p := range pkgs {
		if p.Types.Name() == "main" || strings.HasPrefix(p.ImportPath, l.ModulePath+"/pkg/") {
			continue
		}
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
				if m := named.Method(i); !ifaceMethods[m.Name()] {
					add(p, name+"."+m.Name(), m)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if f := st.Field(i); !f.Embedded() && st.Tag(i) == "" {
						add(p, name+"."+f.Name(), f)
					}
				}
			}
		}
	}

	keys := make([]string, 0, len(cands))
	for k := range cands {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := cands[k]
		if _, kept := keptForTests[k]; !c.called && !kept {
			t.Errorf("%s: %s has no caller outside tests; delete it or list it in keptForTests with a reason", c.pos, k)
		}
	}
	for k, reason := range keptForTests {
		c, ok := cands[k]
		switch {
		case reason == "":
			t.Errorf("keptForTests[%q] gives no reason", k)
		case !ok:
			t.Errorf("keptForTests[%q] is stale: no such declaration", k)
		case c.called:
			t.Errorf("keptForTests[%q] is stale: non-test code references it", k)
		}
	}
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
