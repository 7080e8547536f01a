package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadManifest fuzzes the manifest boundary: any bytes in a manifest
// file give a manifest or an error, never a panic, and an accepted
// manifest satisfies the invariants resume and merge rely on and
// survives a write/read round trip unchanged. The seed corpus in
// testdata/fuzz/FuzzReadManifest covers a valid v2 manifest, a v1 one,
// truncated JSON, negative and overflowing counts, a count above the
// shard's plan, and a shard index outside its count.
func FuzzReadManifest(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "in.manifest.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(path)
		if err != nil {
			return
		}
		if m.Schema != ManifestSchema || m.Of < 1 || m.Shard < 0 || m.Shard >= m.Of ||
			m.TotalCells < 0 || m.Completed < 0 || m.Completed > m.PlanLen() ||
			m.PlanLen() > m.TotalCells || m.Records == "" {
			t.Fatalf("accepted an inconsistent manifest %+v", m)
		}
		back := filepath.Join(dir, "back.manifest.json")
		if err := WriteManifest(back, m); err != nil {
			t.Fatalf("rewriting an accepted manifest: %v", err)
		}
		again, err := ReadManifest(back)
		if err != nil {
			t.Fatalf("rereading a rewritten manifest: %v", err)
		}
		if again != m {
			t.Fatalf("round trip changed the manifest: %+v became %+v", m, again)
		}
	})
}

// FuzzMerge fuzzes the merge boundary: two shard manifests and their
// records files, any bytes in each, are written into a fresh
// t.TempDir() and merged, the first manifest alone when one is set.
// Every input gives an error or a merge that wrote every byte of the
// records files its manifests name, one record line per cell, never a
// panic. A manifest whose records path leaves that directory is
// skipped, so no input reads a file the harness did not write (a path
// like /dev/zero never ends). The seed corpus in testdata/fuzz/FuzzMerge
// covers a complete two-shard and a one-shard sweep, an incomplete
// shard, a duplicate shard, mixed sweeps, a missing, a torn and an
// extra line, and records paths that name a directory, the manifest
// itself, or a file outside the directory.
func FuzzMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest0, records0, manifest1, records1 []byte, one bool) {
		dir := t.TempDir()
		files := []struct {
			name string
			data []byte
		}{
			{"s0.manifest.json", manifest0}, {"s0.jsonl", records0},
			{"s1.manifest.json", manifest1}, {"s1.jsonl", records1},
		}
		for _, file := range files {
			if err := os.WriteFile(filepath.Join(dir, file.name), file.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		paths := []string{filepath.Join(dir, files[0].name), filepath.Join(dir, files[2].name)}
		if one {
			paths = paths[:1]
		}
		for _, p := range paths {
			var m Manifest
			if json.Unmarshal(readFile(t, p), &m) == nil && m.Records != "" && !filepath.IsLocal(m.Records) {
				t.Skip("records path leaves the test directory")
			}
		}
		var out bytes.Buffer
		info, err := Merge(&out, paths)
		if err != nil {
			return
		}
		size := 0
		for _, p := range paths {
			m, err := ReadManifest(p)
			if err != nil {
				t.Fatalf("merged a manifest that does not read back: %v", err)
			}
			size += len(readFile(t, m.RecordsPath(p)))
		}
		if info.Shards != len(paths) || info.Records != bytes.Count(out.Bytes(), []byte("\n")) ||
			out.Len() != size {
			t.Fatalf("merge of %d manifests reports %+v but wrote %d lines, %d bytes of %d",
				len(paths), info, bytes.Count(out.Bytes(), []byte("\n")), out.Len(), size)
		}
	})
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
