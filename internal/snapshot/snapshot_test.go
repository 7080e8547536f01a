package snapshot

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// familyGraphs builds one representative of every graph family the
// spec grammar can produce, deterministic generators seeded fixed. The
// clique: spec builds an implicit graph with no edge list to store, so
// the clique here is the complete graph as CSR.
func familyGraphs(t *testing.T) map[string]*graph.Dense {
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
	var cliqueEdges []graph.Edge
	for u := int32(0); u < 23; u++ {
		for w := u + 1; w < 23; w++ {
			cliqueEdges = append(cliqueEdges, graph.Edge{U: u, W: w})
		}
	}
	clique, err := graph.NewDense(23, cliqueEdges, "clique-23")
	if err != nil {
		t.Fatalf("clique: %v", err)
	}
	return map[string]*graph.Dense{
		"clique":    clique,
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
			s := &Snapshot{Graph: g, Source: "spec:" + name}
			got := mustRoundTrip(t, s)
			assertSameGraph(t, g, got.Graph)
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
	g, err := graph.WattsStrogatz(64, 4, 0.2, xrand.New(3))
	if err != nil {
		t.Fatalf("ws: %v", err)
	}
	data, err := (&Snapshot{Graph: g, Source: "ws:64:4:0.2"}).Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

// edgeSlab returns the packed-edge bytes of an encoded snapshot.
func edgeSlab(data []byte) []byte {
	nameLen := int(binary.LittleEndian.Uint16(data[40:]))
	sourceLen := int(binary.LittleEndian.Uint16(data[42:]))
	return data[align8(headerSize+nameLen+sourceLen):]
}

// fixCRC recomputes the checksum after a patch, so a test reaches the
// validation layer it targets instead of tripping the checksum first.
func fixCRC(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[crcOffset:], checksum(data))
	return data
}

// patchEdges returns a TestDecodeRejects mutation that edits the
// fixture's packed-edge slab and recomputes the checksum.
func patchEdges(edit func(edges []byte)) func(t *testing.T, data []byte) []byte {
	return func(t *testing.T, data []byte) []byte {
		edit(edgeSlab(data))
		return fixCRC(data)
	}
}

// twoComponents returns a well-formed snapshot of two disjoint 4-cycles
// with a valid checksum: cycle:8's file with its edge slab replaced,
// since no graph constructor builds a disconnected graph to encode.
func twoComponents(t *testing.T) []byte {
	t.Helper()
	data, err := (&Snapshot{Graph: graph.Cycle(8), Source: "cycle:8"}).Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	slab := edgeSlab(data)
	for i, e := range [][2]uint64{{0, 1}, {0, 3}, {1, 2}, {2, 3}, {4, 5}, {4, 7}, {5, 6}, {6, 7}} {
		binary.LittleEndian.PutUint64(slab[8*i:], e[0]<<32|e[1])
	}
	return fixCRC(data)
}

// readFixture returns a committed file from testdata.
func readFixture(name string) func(t *testing.T, data []byte) []byte {
	return func(t *testing.T, _ []byte) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(t *testing.T, data []byte) []byte
		wantErr error
		// wantCause, when set, must also be wrapped: the graph error
		// under ErrCorrupt that names which edge-list check failed.
		wantCause error
		// wantMsg, when set, must appear in the error: it pins which
		// check refused the data where several could.
		wantMsg string
	}{
		{"empty", func(t *testing.T, data []byte) []byte {
			return nil
		}, ErrNotSnapshot, nil, ""},
		{"foreign-data", func(t *testing.T, data []byte) []byte {
			copy(data, "GIF89a-definitely-not-a-snapshot")
			return data
		}, ErrNotSnapshot, nil, ""},
		{"older-version", func(t *testing.T, data []byte) []byte {
			copy(data[:16], "popgraph-snap/v0")
			return data
		}, ErrVersion, nil, ""},
		{"future-version", func(t *testing.T, data []byte) []byte {
			copy(data[:16], "popgraph-snap/v4")
			return data
		}, ErrVersion, nil, ""},
		{"truncated-header", func(t *testing.T, data []byte) []byte {
			return data[:20]
		}, ErrCorrupt, nil, ""},
		{"truncated-payload", func(t *testing.T, data []byte) []byte {
			return data[:len(data)-8]
		}, ErrCorrupt, nil, ""},
		{"trailing-garbage", func(t *testing.T, data []byte) []byte {
			return append(data, 0, 0, 0, 0, 0, 0, 0, 0)
		}, ErrCorrupt, nil, ""},
		{"flipped-payload-bit", func(t *testing.T, data []byte) []byte {
			edgeSlab(data)[0] ^= 0x01
			return data
		}, ErrCorrupt, nil, "checksum"},
		{"flipped-name-bit", func(t *testing.T, data []byte) []byte {
			data[headerSize] ^= 0x01 // the graph name's first byte
			return data
		}, ErrCorrupt, nil, "checksum"},
		// The edge slab the header implies runs past the end of the file.
		{"section-out-of-bounds", func(t *testing.T, data []byte) []byte {
			binary.LittleEndian.PutUint64(data[24:], uint64(len(data)))
			return fixCRC(data)
		}, ErrCorrupt, nil, "header implies"},
		{"meta-2m-over-limit", func(t *testing.T, data []byte) []byte {
			// m = 2³⁰ passes the m ≤ 2³¹−1 check, but 2m does not fit
			// int32 CSR offsets.
			binary.LittleEndian.PutUint64(data[24:], 1<<30)
			return fixCRC(data)
		}, ErrCorrupt, nil, "2³¹−1"},
		// A popgraph-snap/v1 file also stored the CSR offsets and
		// adjacency, and a v2 file put the same edges behind a section
		// table; testdata holds cycle:8 as cmd/preprocess wrote it in
		// each format.
		{"v1-file", readFixture("cycle8-v1.popg"), ErrVersion, nil, "rebuild the file with cmd/preprocess"},
		{"v2-file", readFixture("cycle8-v2.popg"), ErrVersion, nil, "rebuild the file with cmd/preprocess"},
		// Edge-list corruptions with the checksum recomputed pass the
		// header checks, so the edge-list checks every load runs must
		// refuse them before any CSR array is built from them.
		{"edges-unsorted", patchEdges(func(edges []byte) {
			a := binary.LittleEndian.Uint64(edges[0:])
			b := binary.LittleEndian.Uint64(edges[8:])
			binary.LittleEndian.PutUint64(edges[0:], b)
			binary.LittleEndian.PutUint64(edges[8:], a)
		}), ErrCorrupt, graph.ErrInvalidEdge, ""},
		{"duplicate-edge", patchEdges(func(edges []byte) {
			copy(edges[8:16], edges[0:8])
		}), ErrCorrupt, graph.ErrInvalidEdge, ""},
		{"endpoint-out-of-range", patchEdges(func(edges []byte) {
			binary.LittleEndian.PutUint64(edges[len(edges)-8:], 63<<32|1000) // (63, 1000), n = 64
		}), ErrCorrupt, graph.ErrInvalidEdge, ""},
		{"reversed-edge", patchEdges(func(edges []byte) {
			binary.LittleEndian.PutUint64(edges[0:], 1<<32) // (1, 0)
		}), ErrCorrupt, graph.ErrInvalidEdge, ""},
		// A valid edge list of a disconnected graph: each component
		// would elect its own leader, so no run on it could stabilize.
		{"two-components", func(t *testing.T, _ []byte) []byte {
			return twoComponents(t)
		}, ErrCorrupt, graph.ErrDisconnected, ""},
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
			if tc.wantCause != nil && !errors.Is(err, tc.wantCause) {
				t.Fatalf("Decode error %v does not wrap %v", err, tc.wantCause)
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
	if err := WriteFile(path, &Snapshot{Graph: g, Source: "ba:200:3"}); err != nil {
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

// TestBuildRejects covers what no snapshot file can be built from: a
// snapshot with no graph, and strings too long for the header's 16-bit
// length fields.
func TestBuildRejects(t *testing.T) {
	if _, err := (&Snapshot{}).Encode(); err == nil {
		t.Fatalf("Encode accepted a snapshot without a graph")
	}
	s := &Snapshot{Graph: graph.Cycle(6), Source: strings.Repeat("x", 1<<16)}
	if _, err := s.Encode(); err == nil {
		t.Fatalf("Encode accepted a %d-byte source spec", len(s.Source))
	}
	if err := WriteFile(filepath.Join(t.TempDir(), "g.popg"), s); err == nil {
		t.Fatalf("WriteFile accepted a %d-byte source spec", len(s.Source))
	}
}

// BenchmarkLoad measures the validated load of a snapshot: read,
// checksum, edge-list checks, the CSR fill and the union-find
// connectivity check. The graph is
// ws:100000:10:0.1, the one BenchmarkWattsStrogatz generates, written
// once before the timer starts, so the two benchmarks compare building
// a graph with loading it. One op is one Load.
func BenchmarkLoad(b *testing.B) {
	g, err := graph.WattsStrogatz(100000, 10, 0.1, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "ws.popg")
	if err := WriteFile(path, &Snapshot{Graph: g, Source: "ws:100000:10:0.1"}); err != nil {
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
