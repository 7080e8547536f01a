package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"popgraph/internal/shard"
)

// TestRefusedMergeKeepsOut — a merge refused for an incomplete shard
// leaves an existing -out byte-identical and no temp file behind.
func TestRefusedMergeKeepsOut(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "s0.manifest.json")
	w, _, err := shard.Open(filepath.Join(dir, "s0.jsonl"), manifest, shard.Manifest{
		Schema:     shard.ManifestSchema,
		SpecHash:   "ab",
		Shard:      0,
		Of:         1,
		TotalCells: 4,
		Records:    "s0.jsonl",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // finalized with 0 of 4 cells
		t.Fatal(err)
	}
	out := filepath.Join(dir, "merged.jsonl")
	good := []byte("{\"graph\":\"a good merged log\"}\n")
	if err := os.WriteFile(out, good, 0o644); err != nil {
		t.Fatal(err)
	}

	err = runMerge(cliConfig{out: out, quiet: true}, []string{manifest})
	if err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("merge of an incomplete shard: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, good) {
		t.Fatalf("refused merge changed -out to %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("refused merge left %s behind", e.Name())
		}
	}
}

// TestRunRefusesOutOfRangeSpecs — a negative -max-steps and a trial
// total over 2³¹−1, from flags or from a -spec file, and a -shard with
// no shards or an index past its count, are errors naming the value,
// returned before any graph or job is built.
func TestRunRefusesOutOfRangeSpecs(t *testing.T) {
	dir := t.TempDir()
	specFile := func(name, json string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(json), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative -max-steps", []string{"-graphs", "clique:4", "-protocols", "six-state", "-max-steps", "-5"}, "-5"},
		{"-trials over the bound", []string{"-graphs", "clique:4", "-protocols", "six-state", "-trials", "4000000000"},
			"4000000000 trials"},
		{"-trials times cells over the bound", []string{"-graphs", "clique:N", "-sizes", "8,16", "-protocols", "six-state",
			"-trials", "1073741824"}, "2147483648 trials"},
		{"spec trials over the bound", []string{"-spec", specFile("huge.json",
			`{"trials": 4611686018427387904, "graphs": ["clique:N"], "sizes": [8, 16], "protocols": ["six-state", "fast"]}`)},
			"18446744073709551616 trials"},
		{"spec negative max_steps", []string{"-spec", specFile("neg.json",
			`{"trials": 1, "graphs": ["clique:4"], "protocols": ["six-state"], "max_steps": -7}`)}, "-7"},
		{"-max-steps overrides the spec", []string{"-spec", specFile("ok.json",
			`{"trials": 1, "graphs": ["clique:4"], "protocols": ["six-state"], "max_steps": 100}`), "-max-steps", "-5"}, "-5"},
		{"negative -trials", []string{"-graphs", "clique:4", "-protocols", "six-state", "-trials", "-3"}, "trials must be >= 1 (got -3)"},
		{"zero -trials", []string{"-graphs", "clique:4", "-protocols", "six-state", "-trials", "0"}, "trials must be >= 1 (got 0)"},
		{"-trials overrides the spec", []string{"-spec", specFile("trials.json",
			`{"trials": 1, "graphs": ["clique:4"], "protocols": ["six-state"]}`), "-trials", "-3"}, "trials must be >= 1 (got -3)"},
		{"NaN -drop", []string{"-graphs", "cycle:8", "-protocols", "six-state", "-drop", "NaN"}, "drop rate NaN outside [0, 1)"},
		{"zero -shard count", []string{"-graphs", "clique:4", "-protocols", "six-state", "-shard", "0/0"},
			`bad -shard "0/0": shard count must be at least 1`},
		{"-shard index past the count", []string{"-graphs", "clique:4", "-protocols", "six-state", "-shard", "3/3"},
			`bad -shard "3/3": index must be in 0..2`},
	}
	for _, c := range cases {
		cfg, rest, err := parseArgs(append(c.args, "-out", "", "-q"))
		if err != nil {
			t.Fatalf("%s: parsing flags: %v", c.name, err)
		}
		err = run(cfg, rest)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.want)
		}
	}
}

// TestUnwritableTrajectoryFailsFirst — a -trajectory path in a missing
// directory is an error before any trial runs, so -out is never written.
func TestUnwritableTrajectoryFailsFirst(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "records.jsonl")
	cfg, rest, err := parseArgs([]string{"-graphs", "clique:8", "-protocols", "six-state", "-trials", "2",
		"-out", out, "-trajectory", filepath.Join(dir, "missing", "traj.jsonl"), "-q"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg, rest); err == nil || !strings.Contains(err.Error(), "trajectory") {
		t.Fatalf("got %v, want an error opening the trajectory log", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("-out was written before the trajectory error: %v", err)
	}
}
