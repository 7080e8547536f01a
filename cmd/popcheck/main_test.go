package main

import (
	"os"
	"path/filepath"
	"testing"

	"popgraph/internal/analyzers"
	"popgraph/internal/analyzers/deadexport"
)

// TestNarrowPatternSeesWholeModule — internal/walk exports functions that
// only other packages call. Checked on its own, deadexport would report
// them; popcheck loads the whole module for references, so a run over
// just that package is clean.
func TestNarrowPatternSeesWholeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := analyzers.NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	alone, err := loader.Load("./internal/walk")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analyzers.Check(alone, []*analyzers.Analyzer{deadexport.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("internal/walk checked alone has no deadexport findings; the test no longer shows anything")
	}

	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	code := run([]string{"./internal/walk"}, stdout, stderr)
	stdout.Close()
	stderr.Close()
	out, _ := os.ReadFile(filepath.Join(dir, "stdout"))
	errOut, _ := os.ReadFile(filepath.Join(dir, "stderr"))
	if code != 0 || len(out) != 0 {
		t.Fatalf("popcheck ./internal/walk: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}
