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
// A graph that decodes must be usable: its degrees sum to 2m, and a
// BFS over it returns. The seed corpus in testdata/fuzz/FuzzDecode
// holds a valid cycle:8 file and five damaged copies of it: truncated,
// a huge section count, a bad checksum, an unknown section kind, and
// two edges swapped with the checksum recomputed. The v1 seed is the
// same graph in the older popgraph-snap/v1 format.
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
		graph.BFSDistances(g, 0)
	})
}
