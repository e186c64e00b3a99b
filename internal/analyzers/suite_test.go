package analyzers_test

import (
	"path/filepath"
	"testing"

	"dimatch/internal/analyzers"
	"dimatch/internal/analyzers/analysis"
)

// TestRepoIsClean runs every analyzer over the whole module and fails on any
// finding: the repo's own invariants, mechanically enforced on every go test
// run, not just in CI. A deliberate exception belongs next to the code as a
// //dimatch:allow line with a rationale, not in this test.
func TestRepoIsClean(t *testing.T) {
	pkgs := loadRepo(t)
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg.Fset, pkg.Files, pkg.Pkg, pkg.Info, analyzers.All)
		if err != nil {
			t.Fatalf("%s: %v", pkg.ImportPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s (%s)", d.Position(pkg.Fset), d.Message, d.Analyzer)
		}
	}
}

// loadRepo type-checks every package of the module from the repo root.
func loadRepo(t *testing.T) []*analysis.Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; expected the whole module", len(pkgs))
	}
	return pkgs
}
