package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"popgraph/internal/sweep"
)

// TestRunRefuses — a spec with no edge list to store (the implicit
// clique) or one that is already a snapshot is an error, and no output
// file, temporary or final, is left behind.
func TestRunRefuses(t *testing.T) {
	for _, spec := range []string{"clique:16", "file:g.popg"} {
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			err := run(spec, 1, filepath.Join(dir, "out.popg"), 0, 0, true, false)
			if err == nil {
				t.Fatalf("run accepted -graph %s", spec)
			}
			if !strings.Contains(err.Error(), spec) {
				t.Fatalf("error %q does not name the spec %q", err, spec)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Fatalf("refused run left %s behind", entries[0].Name())
			}
		})
	}
}

// TestSweepSeedMatchesSeed — -sweep-seed S -sweep-index I builds the
// graph a sweep seeded S builds for its I-th graph spec, so the file is
// byte for byte the one -seed sweep.GraphBuildSeed(S, I) writes.
func TestSweepSeedMatchesSeed(t *testing.T) {
	const spec, sweepSeed, sweepIndex = "ws:256:6:0.2", 42, 3
	dir := t.TempDir()
	viaSweep := filepath.Join(dir, "sweep.popg")
	viaSeed := filepath.Join(dir, "seed.popg")
	if err := run(spec, 1, viaSweep, sweepSeed, sweepIndex, true, true); err != nil {
		t.Fatal(err)
	}
	if err := run(spec, sweep.GraphBuildSeed(sweepSeed, sweepIndex), viaSeed, 0, 0, true, false); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(viaSweep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(viaSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("-sweep-seed %d -sweep-index %d wrote %d bytes that differ from -seed GraphBuildSeed's %d",
			sweepSeed, sweepIndex, len(a), len(b))
	}
	// A different construction seed builds a different graph, so the
	// comparison above can fail.
	if err := run(spec, 1, viaSeed, 0, 0, true, false); err != nil {
		t.Fatal(err)
	}
	if c, err := os.ReadFile(viaSeed); err != nil || bytes.Equal(a, c) {
		t.Fatalf("-seed 1 wrote the same file as the sweep seed (err %v)", err)
	}
}
