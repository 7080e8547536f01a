package shard

import (
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
