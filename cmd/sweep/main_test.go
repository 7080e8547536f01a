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
