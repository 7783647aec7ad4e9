package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CellKey pins the cache-key completeness invariant: in any package that
// declares both a `Cell` struct and a `CellKey` function (in this repo,
// internal/engine), every field of Cell and every field of Params must
// either be read inside CellKey's body — i.e. contribute a cache-key
// dimension — or carry an explicit exemption on the field:
//
//	//ones:nokey <reason>
//
// A result-affecting knob missing from the key is the cache-poisoning
// bug class PRs 6 and 8 each had to guard by hand with golden tests:
// two cells that compute different results would share one cache entry,
// and whichever ran first would silently serve the other's answer
// forever. The exemption is for pure-throughput knobs (Workers) and
// experiment-rendering parameters (Capacities, ParamScale, CFPoints)
// whose exclusion is the point — the annotation forces that argument into
// the source next to the field.
var CellKey = &Analyzer{
	Name: "cellkey",
	Doc:  "every Cell/Params field must feed CellKey or carry //ones:nokey <reason>",
	Run:  runCellKey,
}

const nokeyPrefix = "//ones:nokey"

func runCellKey(pass *Pass) {
	cell := findStruct(pass.Pkg, "Cell")
	params := findStruct(pass.Pkg, "Params")
	keyFn := findFunc(pass.Pkg, "CellKey")
	if cell == nil || keyFn == nil || keyFn.Body == nil {
		return // not a cache-key-bearing package
	}

	// Fields read in CellKey's body, per receiver struct type: any
	// selector expression resolving to a field of Cell or Params counts
	// as a key dimension (the body renders them into the key string).
	read := make(map[types.Object]bool)
	ast.Inspect(keyFn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := pass.Pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			read[s.Obj()] = true
		}
		return true
	})

	check := func(name string, st *ast.StructType) {
		for _, field := range st.Fields.List {
			exempt, hasReason := nokeyDirective(field)
			if exempt && !hasReason {
				pass.Reportf(field.Pos(), "//ones:nokey needs a reason — say why this %s field may stay out of the cache key", name)
			}
			for _, id := range field.Names {
				obj := pass.Pkg.Info.Defs[id]
				if obj == nil {
					continue
				}
				if read[obj] {
					if exempt {
						pass.Reportf(id.Pos(), "%s.%s carries //ones:nokey but IS read in CellKey — drop the stale exemption", name, id.Name)
					}
					continue
				}
				if exempt {
					continue
				}
				pass.Reportf(id.Pos(), "%s.%s is not read in CellKey and carries no //ones:nokey exemption: a result-affecting dimension missing from the cache key poisons the cache", name, id.Name)
			}
		}
	}
	check("Cell", cell)
	if params != nil {
		check("Params", params)
	}
}

// nokeyDirective scans a field's doc and trailing comments for the
// //ones:nokey directive, returning whether it is present and whether
// it carries a reason.
func nokeyDirective(field *ast.Field) (present, hasReason bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, nokeyPrefix)
			if !ok {
				continue
			}
			if rest != "" && !strings.HasPrefix(rest, " ") {
				continue
			}
			return true, strings.TrimSpace(rest) != ""
		}
	}
	return false, false
}

// findStruct returns the struct type declared under name, or nil.
func findStruct(pkg *Package, name string) *ast.StructType {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}

// findFunc returns the top-level (non-method) function declared under
// name, or nil.
func findFunc(pkg *Package, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}
