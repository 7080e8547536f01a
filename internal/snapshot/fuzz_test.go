package snapshot

import (
	"errors"
	"runtime"
	"testing"

	"popgraph/internal/graph"
)

// decodeAllocSlack is the allocation FuzzDecode forgives beyond the
// input's own size: the small fixed structures of a decoded snapshot,
// plus whatever the runtime allocates meanwhile. A decoder that sized
// an allocation by a length the input claims, rather than by the bytes
// it has, overshoots this by orders of magnitude.
const decodeAllocSlack = 1 << 20

// FuzzDecode feeds arbitrary bytes to Decode. Every input must come
// back as a snapshot or an error wrapping one of the decode sentinels:
// never a panic, and never an allocation sized by a claimed length.
// A graph that decodes must be usable and connected: its degrees sum
// to 2m, and a BFS from node 0 reaches every node. The seed corpus in
// testdata/fuzz/FuzzDecode holds a valid cycle:8 file and four damaged
// copies of it: truncated, a bad checksum, two edges swapped with the
// checksum recomputed, and its edges replaced by two 4-cycles with the
// checksum recomputed. The v1 and v2 seeds are the same graph in the
// older popgraph-snap/v1 and popgraph-snap/v2 formats.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Decode(data)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(4*len(data)+decodeAllocSlack) {
			t.Fatalf("Decode of %d bytes allocated %d bytes", len(data), grown)
		}
		if err != nil {
			if !errors.Is(err, ErrNotSnapshot) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v wraps no decode sentinel", err)
			}
			return
		}
		if s == nil || s.Graph == nil {
			t.Fatalf("Decode returned no error and no graph")
		}
		g := s.Graph
		degrees := 0
		for v := 0; v < g.N(); v++ {
			degrees += g.Degree(v)
		}
		if degrees != 2*g.M() {
			t.Fatalf("degrees sum to %d, want 2m = %d", degrees, 2*g.M())
		}
		for v, d := range graph.BFSDistances(g, 0) {
			if d < 0 {
				t.Fatalf("node %d of an accepted %d-node graph is unreachable from node 0", v, g.N())
			}
		}
	})
}
