package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks module packages with nothing but the
// standard library: module-internal imports are resolved against the
// module tree on disk, everything else through the stdlib source
// importer (which type-checks $GOROOT/src — no export data, no
// golang.org/x/tools, no module dependencies).
type Loader struct {
	ModulePath string
	Root       string

	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*Package // by import path
	checking map[string]bool     // import-cycle guard
}

// NewLoader returns a loader rooted at the module directory containing
// go.mod (root itself must hold it).
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %s is not a module root: %w", root, err)
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modPath,
		Root:       root,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		checking:   make(map[string]bool),
	}, nil
}

// Load resolves package patterns to loaded packages. A pattern is a
// directory path relative to the loader root (or absolute), optionally
// ending in "/..." for a recursive walk. Walks skip testdata, hidden and
// underscore directories — but an explicit non-recursive pattern loads
// its directory even inside testdata, which is how the CI guard-the-
// guard step points oneslint at a deliberately violating fixture.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			recursive, pat = true, ""
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		}
		if pat == "" || pat == "." {
			pat = l.Root
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.Root, pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != pat && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if ok, err := hasGoFiles(path); err != nil {
				return err
			} else if ok {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	out := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("analysis: %s is outside module root %s", dir, l.Root)
		}
		importPath := l.ModulePath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// hasGoFiles reports whether dir holds at least one non-test .go file.
func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// LoadDir parses and type-checks the non-test .go files of one directory
// as the package importPath. The import path need not match the
// directory's real module position — analyzer tests use this to load a
// testdata fixture under a determinism-critical path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.checking[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.checking[importPath] = true
	defer delete(l.checking, importPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	p := &Package{
		ImportPath: importPath,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// importPkg resolves one import: module-internal paths load from the
// module tree, everything else from $GOROOT source.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")))
		p, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
