package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// familyGraphs builds one representative of every graph family the
// spec grammar can produce, deterministic generators seeded fixed.
func familyGraphs(t *testing.T) map[string]graph.Graph {
	t.Helper()
	r := xrand.New(99)
	gnp, err := graph.Gnp(64, 0.12, r)
	if err != nil {
		t.Fatalf("gnp: %v", err)
	}
	ws, err := graph.WattsStrogatz(128, 6, 0.2, r)
	if err != nil {
		t.Fatalf("ws: %v", err)
	}
	ba, err := graph.BarabasiAlbert(100, 3, r)
	if err != nil {
		t.Fatalf("ba: %v", err)
	}
	reg, err := graph.RandomRegular(32, 3, r)
	if err != nil {
		t.Fatalf("regular: %v", err)
	}
	dense, err := graph.NewDense(5, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 3}, {U: 3, W: 4}, {U: 4, W: 0}, {U: 0, W: 2},
	}, "pentagon+chord")
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	return map[string]graph.Graph{
		"clique":    graph.NewClique(23), // implicit; materialized by Build
		"dense":     dense,
		"cycle":     graph.Cycle(17),
		"path":      graph.Path(9),
		"star":      graph.Star(12),
		"torus":     graph.Torus2D(4, 5),
		"grid":      graph.Grid2D(3, 4),
		"hypercube": graph.Hypercube(4),
		"lollipop":  graph.Lollipop(8, 5),
		"barbell":   graph.Barbell(5, 4),
		"gnp":       gnp,
		"ws":        ws,
		"ba":        ba,
		"regular":   reg,
	}
}

// mustRoundTrip encodes and re-decodes s, failing the test on error.
func mustRoundTrip(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

// assertSameGraph requires the two Dense graphs to hold identical CSR
// arrays (every node's degree and neighbour order, hence offsets and
// adjacency), packed edge lists and diameters — the property that makes
// loaded-graph runs byte-identical.
func assertSameGraph(t *testing.T, want, got *graph.Dense) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Name() != want.Name() {
		t.Fatalf("got n=%d m=%d name=%q, want n=%d m=%d name=%q",
			got.N(), got.M(), got.Name(), want.N(), want.M(), want.Name())
	}
	gotOff, gotAdj := got.CSR()
	wantOff, wantAdj := want.CSR()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
		t.Fatalf("CSR arrays differ")
	}
	if !slices.Equal(got.PackedEdges(), want.PackedEdges()) {
		t.Fatalf("packed edges differ")
	}
	if got.KnownDiameter() != want.KnownDiameter() {
		t.Fatalf("diameter = %d, want %d", got.KnownDiameter(), want.KnownDiameter())
	}
}

func TestRoundTripFamilies(t *testing.T) {
	for name, g := range familyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			s, err := Build(g, "spec:"+name)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			got := mustRoundTrip(t, s)
			assertSameGraph(t, s.Graph, got.Graph)
			if got.Source != "spec:"+name {
				t.Fatalf("source %q, want %q", got.Source, "spec:"+name)
			}
		})
	}
}

// encodeFixture returns a valid snapshot buffer for the corruption
// tests.
func encodeFixture(t *testing.T) []byte {
	t.Helper()
	r := xrand.New(3)
	g, err := graph.WattsStrogatz(64, 4, 0.2, r)
	if err != nil {
		t.Fatalf("ws: %v", err)
	}
	s, err := Build(g, "ws:64:4:0.2")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

// findSection locates the first section of the given kind and returns
// its index, offset and length.
func findSection(t *testing.T, data []byte, kind uint32) (idx int, offset, length int) {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[20:]))
	for i := 0; i < count; i++ {
		e := data[headerSize+sectionEntrySize*i:]
		if binary.LittleEndian.Uint32(e[0:]) == kind {
			return i, int(binary.LittleEndian.Uint64(e[8:])), int(binary.LittleEndian.Uint64(e[16:]))
		}
	}
	t.Fatalf("no section of kind %d", kind)
	return 0, 0, 0
}

// fixCRC recomputes section idx's checksum after a payload patch, so a
// test reaches the validation layer it targets instead of tripping the
// checksum first.
func fixCRC(data []byte, idx int) {
	e := data[headerSize+sectionEntrySize*idx:]
	off := binary.LittleEndian.Uint64(e[8:])
	length := binary.LittleEndian.Uint64(e[16:])
	crc := crc32.Checksum(data[off:off+length], castagnoli)
	binary.LittleEndian.PutUint32(e[4:], crc)
}

// patchEdges returns a TestDecodeRejects mutation that edits the
// fixture's packed-edge payload and recomputes its checksum.
func patchEdges(edit func(edges []byte)) func(t *testing.T, data []byte) []byte {
	return func(t *testing.T, data []byte) []byte {
		idx, off, length := findSection(t, data, kindEdges)
		edit(data[off : off+length])
		fixCRC(data, idx)
		return data
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(t *testing.T, data []byte) []byte
		wantErr error
		// wantMsg, when set, must appear in the error: it pins which
		// check refused the data where several could.
		wantMsg string
	}{
		{"empty", func(t *testing.T, data []byte) []byte {
			return nil
		}, ErrNotSnapshot, ""},
		{"foreign-data", func(t *testing.T, data []byte) []byte {
			copy(data, "GIF89a-definitely-not-a-snapshot")
			return data
		}, ErrNotSnapshot, ""},
		{"older-version", func(t *testing.T, data []byte) []byte {
			copy(data[:16], "popgraph-snap/v0")
			return data
		}, ErrVersion, ""},
		{"future-version", func(t *testing.T, data []byte) []byte {
			copy(data[:16], "popgraph-snap/v3")
			return data
		}, ErrVersion, ""},
		{"truncated-header", func(t *testing.T, data []byte) []byte {
			return data[:20]
		}, ErrCorrupt, ""},
		{"truncated-payload", func(t *testing.T, data []byte) []byte {
			return data[:len(data)-8]
		}, ErrCorrupt, ""},
		{"trailing-garbage", func(t *testing.T, data []byte) []byte {
			return append(data, 0, 0, 0, 0, 0, 0, 0, 0)
		}, ErrCorrupt, ""},
		{"flipped-payload-bit", func(t *testing.T, data []byte) []byte {
			_, off, _ := findSection(t, data, kindEdges)
			data[off] ^= 0x01
			return data
		}, ErrCorrupt, ""},
		{"section-out-of-bounds", func(t *testing.T, data []byte) []byte {
			idx, _, _ := findSection(t, data, kindEdges)
			e := data[headerSize+sectionEntrySize*idx:]
			binary.LittleEndian.PutUint64(e[16:], uint64(len(data)))
			return data
		}, ErrCorrupt, ""},
		{"misaligned-section", func(t *testing.T, data []byte) []byte {
			idx, off, _ := findSection(t, data, kindEdges)
			e := data[headerSize+sectionEntrySize*idx:]
			binary.LittleEndian.PutUint64(e[8:], uint64(off)+4)
			return data
		}, ErrCorrupt, ""},
		{"connectivity-flag-cleared", func(t *testing.T, data []byte) []byte {
			binary.LittleEndian.PutUint32(data[16:], 0)
			return data
		}, ErrCorrupt, ""},
		{"meta-2m-over-limit", func(t *testing.T, data []byte) []byte {
			// m = 2³⁰ passes the m ≤ 2³¹−1 check, but 2m does not fit
			// int32 CSR offsets.
			idx, off, _ := findSection(t, data, kindMeta)
			binary.LittleEndian.PutUint64(data[off+8:], 1<<30)
			fixCRC(data, idx)
			return data
		}, ErrCorrupt, "2³¹−1"},
		{"unknown-section-kind", func(t *testing.T, data []byte) []byte {
			idx, _, _ := findSection(t, data, kindEdges)
			e := data[headerSize+sectionEntrySize*idx:]
			binary.LittleEndian.PutUint32(e[0:], 99)
			return data
		}, ErrCorrupt, ""},
		// A popgraph-snap/v1 file also stored the CSR offsets and
		// adjacency; testdata/cycle8-v1.popg is cycle:8 as
		// cmd/preprocess wrote it before the format moved to v2.
		{"v1-file", func(t *testing.T, data []byte) []byte {
			v1, err := os.ReadFile(filepath.Join("testdata", "cycle8-v1.popg"))
			if err != nil {
				t.Fatal(err)
			}
			return v1
		}, ErrVersion, "rebuild the file with cmd/preprocess"},
		// Edge-list corruptions with the checksum recomputed pass the
		// container checks, so the edge-list checks every load runs
		// must refuse them before any CSR array is built from them.
		{"edges-unsorted", patchEdges(func(edges []byte) {
			a := binary.LittleEndian.Uint64(edges[0:])
			b := binary.LittleEndian.Uint64(edges[8:])
			binary.LittleEndian.PutUint64(edges[0:], b)
			binary.LittleEndian.PutUint64(edges[8:], a)
		}), ErrCorrupt, ""},
		{"duplicate-edge", patchEdges(func(edges []byte) {
			copy(edges[8:16], edges[0:8])
		}), ErrCorrupt, ""},
		{"endpoint-out-of-range", patchEdges(func(edges []byte) {
			binary.LittleEndian.PutUint64(edges[len(edges)-8:], 63<<32|1000) // (63, 1000), n = 64
		}), ErrCorrupt, ""},
		{"reversed-edge", patchEdges(func(edges []byte) {
			binary.LittleEndian.PutUint64(edges[0:], 1<<32) // (1, 0)
		}), ErrCorrupt, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(t, encodeFixture(t))
			_, err := Decode(data)
			if err == nil {
				t.Fatalf("Decode accepted %s data", tc.name)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Decode error %v, want %v", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("Decode error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestDecodePortablePath forces the element-by-element decode (the
// big-endian / misaligned-buffer fallback) and requires it to produce
// the same graph as the zero-copy path.
func TestDecodePortablePath(t *testing.T) {
	data := encodeFixture(t)
	want, err := Decode(append([]byte(nil), data...))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got, err := decode(append([]byte(nil), data...), false)
	if err != nil {
		t.Fatalf("portable decode: %v", err)
	}
	assertSameGraph(t, want.Graph, got.Graph)
}

func TestWriteFileLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.popg")
	r := xrand.New(11)
	g, err := graph.BarabasiAlbert(200, 3, r)
	if err != nil {
		t.Fatalf("ba: %v", err)
	}
	s, err := Build(g, "ba:200:3")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := WriteFile(path, s); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	assertSameGraph(t, g, loaded.Graph)

	// WriteFile is atomic: no temp files survive a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 || entries[0].Name() != "g.popg" {
		t.Fatalf("directory holds %d entries after WriteFile, want just g.popg", len(entries))
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.popg")
	data := encodeFixture(t)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	info, err := Inspect(path)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if info.N != 64 || info.M != 128 || !info.Connected {
		t.Fatalf("Inspect n=%d m=%d connected=%v, want 64/128/true", info.N, info.M, info.Connected)
	}
	if info.Source != "ws:64:4:0.2" {
		t.Fatalf("Inspect source %q", info.Source)
	}
	if len(info.Sections) != 2 {
		t.Fatalf("Inspect found %d sections, want 2", len(info.Sections))
	}
	wantKinds := []string{"meta", "packed-edges"}
	for i, k := range wantKinds {
		if info.Sections[i].Kind != k {
			t.Fatalf("section %d kind %q, want %q", i, info.Sections[i].Kind, k)
		}
	}
	if info.Sections[0].Name != info.GraphName {
		t.Fatalf("meta section name %q, want the graph name %q", info.Sections[0].Name, info.GraphName)
	}
}

// TestBuildRejects covers the encoder's input validation: a snapshot
// with no graph, and strings too long for the meta section's 16-bit
// length fields.
func TestBuildRejects(t *testing.T) {
	if _, err := (&Snapshot{}).Encode(); err == nil {
		t.Fatalf("Encode accepted a snapshot without a graph")
	}
	s, err := Build(graph.Cycle(6), strings.Repeat("x", 1<<16))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := s.Encode(); err == nil {
		t.Fatalf("Encode accepted a %d-byte source spec", len(s.Source))
	}
	if err := WriteFile(filepath.Join(t.TempDir(), "g.popg"), s); err == nil {
		t.Fatalf("WriteFile accepted a %d-byte source spec", len(s.Source))
	}
}

// BenchmarkLoad measures the validated load of a snapshot: read,
// checksums, edge-list checks and the CSR fill. The graph is
// ws:100000:10:0.1, the one BenchmarkWattsStrogatz generates, written
// once before the timer starts, so the two benchmarks compare building
// a graph with loading it. One op is one Load.
func BenchmarkLoad(b *testing.B) {
	g, err := graph.WattsStrogatz(100000, 10, 0.1, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	s, err := Build(g, "ws:100000:10:0.1")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "ws.popg")
	if err := WriteFile(path, s); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := Load(path)
		if err != nil {
			b.Fatal(err)
		}
		if loaded.Graph.M() != g.M() {
			b.Fatalf("loaded %d edges, want %d", loaded.Graph.M(), g.M())
		}
	}
}
