package analysis

import (
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The file set and stdlib source importer every test loader shares, so
// the package's tests type-check the standard library once, not once per
// test. The source importer's package map is not locked: tests that load
// packages must not run in parallel.
var (
	sharedStdOnce sync.Once
	sharedFset    *token.FileSet
	sharedStd     types.Importer
)

// testLoader returns a loader rooted at root that resolves the standard
// library through the shared importer. Each test still gets its own
// Loader: fixtures load under real import paths (the detrand fixture as
// repro/internal/simulator), which would collide in one package map.
func testLoader(t *testing.T, root string) *Loader {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	sharedStdOnce.Do(func() {
		sharedFset = token.NewFileSet()
		sharedStd = importer.ForCompiler(sharedFset, "source", nil)
	})
	l.fset, l.std = sharedFset, sharedStd
	return l
}

// loadFixture type-checks one fixture directory under the given import
// path. Criticality (detrand) is derived from the import path, so each
// test picks the path matching the scenario it exercises.
func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	pkg, err := testLoader(t, filepath.Join("..", "..")).LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

// wantRe extracts expected-diagnostic annotations of the form
//
//	// want "substring of the expected message"
//
// from fixture comments. An annotation binds to the line it sits on.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// checkWants runs the analyzers over pkg and matches every finding
// against the fixture's annotations, both ways: a finding on a line
// without a matching annotation fails, and so does an annotation no
// finding satisfied.
func checkWants(t *testing.T, pkg *Package, analyzers []*Analyzer) {
	t.Helper()
	type want struct {
		substr string
		hit    bool
	}
	wants := make(map[int][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					line := pkg.Fset.Position(c.Pos()).Line
					wants[line] = append(wants[line], &want{substr: m[1]})
				}
			}
		}
	}
	for _, d := range Run([]*Package{pkg}, analyzers) {
		matched := false
		for _, w := range wants[d.Pos.Line] {
			if !w.hit && strings.Contains(d.Message, w.substr) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("line %d: want a finding containing %q, got none", line, w.substr)
			}
		}
	}
}

func TestDetrandFixture(t *testing.T) {
	// Loaded under a determinism-critical import path so the analyzer
	// engages; the fixture covers wall clock, global rand, the seeded
	// escape, the //ones:allow hatch and the map-range heuristics.
	pkg := loadFixture(t, "testdata/src/detrand", "repro/internal/simulator")
	checkWants(t, pkg, []*Analyzer{Detrand})
}

func TestDetrandSkipsNonCriticalPackages(t *testing.T) {
	// The same forbidden calls under an obs-domain import path must
	// produce nothing: wall time is that package's whole point.
	pkg := loadFixture(t, "testdata/src/detrand_exempt", "repro/internal/obs")
	if diags := Run([]*Package{pkg}, []*Analyzer{Detrand}); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("finding in non-critical package: %s", d)
		}
	}
}

func TestCellKeyFixture(t *testing.T) {
	pkg := loadFixture(t, "testdata/src/cellkey", "repro/internal/cellkeyfix")
	checkWants(t, pkg, []*Analyzer{CellKey})
}

func TestNilObsFixture(t *testing.T) {
	pkg := loadFixture(t, "testdata/src/nilobs", "repro/internal/nilobsfix")
	checkWants(t, pkg, []*Analyzer{NilObs})
}

func TestLockedConvFixture(t *testing.T) {
	pkg := loadFixture(t, "testdata/src/lockedconv", "repro/internal/lockedfix")
	checkWants(t, pkg, []*Analyzer{LockedConv})
}

func TestMalformedAllowDirectives(t *testing.T) {
	pkg := loadFixture(t, "testdata/src/allowbad", "repro/internal/allowbadfix")
	diags := Run([]*Package{pkg}, All())
	wantSubstrs := []string{
		"needs an analyzer name",
		"unknown analyzer bogus",
		"needs a reason",
	}
	if len(diags) != len(wantSubstrs) {
		t.Errorf("got %d findings, want %d:", len(diags), len(wantSubstrs))
		for _, d := range diags {
			t.Errorf("  %s", d)
		}
	}
	for _, substr := range wantSubstrs {
		found := false
		for _, d := range diags {
			if d.Analyzer == "allow" && strings.Contains(d.Message, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no [allow] finding containing %q", substr)
		}
	}
}

// TestCellKeyCatchesInjectedField is the end-to-end guard the suite
// exists for: copy the real internal/engine sources, inject a new Cell
// field that does not feed CellKey, and assert cellkey reports exactly
// that field — and nothing on the unmodified remainder.
func TestCellKeyCatchesInjectedField(t *testing.T) {
	src := filepath.Join("..", "engine")
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("reading %s: %v", src, err)
	}
	injected := false
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if !injected {
			const anchor = "type Cell struct {"
			if i := strings.Index(string(data), anchor); i >= 0 {
				patched := string(data[:i+len(anchor)]) +
					"\n\tSneakyKnob int // injected: affects results, absent from CellKey" +
					string(data[i+len(anchor):])
				data = []byte(patched)
				injected = true
			}
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !injected {
		t.Fatal("no `type Cell struct {` found in internal/engine")
	}
	// A non-critical import path keeps detrand quiet; cellkey keys off
	// the Cell+CellKey declarations, not the path.
	pkg := loadFixture(t, dst, "repro/internal/engineinjected")
	diags := Run([]*Package{pkg}, []*Analyzer{CellKey})
	caught := false
	for _, d := range diags {
		if strings.Contains(d.Message, "Cell.SneakyKnob is not read in CellKey") {
			caught = true
			continue
		}
		t.Errorf("unexpected finding on unmodified engine code: %s", d)
	}
	if !caught {
		t.Error("cellkey missed the injected Cell.SneakyKnob field")
	}
}
