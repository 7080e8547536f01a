package suite_test

import (
	"testing"

	"popgraph/internal/analyzers"
	"popgraph/internal/analyzers/suite"
)

// TestSuiteNames pins the analyzer set: a new pass must be added here
// deliberately, and the names are what ignore/allow directives key on.
func TestSuiteNames(t *testing.T) {
	want := []string{"deadexport", "detrand", "hotpath", "lockcallback", "mapiter", "seedflow"}
	got := suite.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}

// TestRepositoryIsClean runs the full suite over the whole module —
// the same invocation CI's popcheck job performs. Any finding here
// means shipping code violates the determinism contract (or needs a
// documented //popcheck:ignore).
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := analyzers.NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern resolution is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
	}
	if t.Failed() {
		t.Fatalf("module does not type-check; analysis results unreliable")
	}
	diags, err := analyzers.Check(pkgs, suite.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
