// Package snapshot defines the popgraph-snap/v2 binary container: a
// graph as its sorted packed edge list, serialized as an 8-byte-aligned
// little-endian slab so a preprocessed graph loads with one read and a
// single checked pass instead of being regenerated per process. A run
// is a fixed graph plus a scheduler over it, and every scheduler is
// rebuilt from its spec, so the graph is all a snapshot carries.
//
// # Container layout
//
// A snapshot is a 48-byte header, a section table, and checksummed
// payloads:
//
//	[0,16)   magic "popgraph-snap/v2" (the version lives in the magic)
//	[16,20)  uint32 flags (bit 0: graph verified connected at encode)
//	[20,24)  uint32 section count
//	[24,32)  uint64 total file size
//	[32,40)  int64  known diameter (-1 = unknown)
//	[40,48)  reserved, zero
//
// followed by count 32-byte section entries (kind, CRC-32C checksum of
// the payload, offset, length, reserved) and then the payloads: meta
// and packed-edges. Every payload starts at an 8-byte-aligned offset —
// the invariant that lets the decoder on a little-endian host alias the
// []int64 edge slab straight into the read buffer. Hosts where that
// cast is unsound (big-endian, or a misaligned buffer) take a portable
// element-by-element decode of the same bytes; both paths produce
// identical values.
//
// # Determinism
//
// The encoder serializes the packed edge list the simulator samples
// from, and the decoder rebuilds the CSR arrays from it through
// graph.NewDenseFromPacked, which checks the list and then runs the
// generators' own CSR fill. A loaded graph is therefore a *graph.Dense
// equal to the generator-built original — same packed edge order, same
// offsets and adjacency, same kernel selection — so a run on it is
// byte-identical to a run on the original (the
// TestPlanEquivalenceMatrix source axis in internal/sim holds the
// contract). Connectivity is verified once at encode time and recorded
// in the header flag under the checksum; the decoder trusts the flag
// instead of re-running the connectivity check.
package snapshot

import (
	"fmt"

	"popgraph/internal/graph"
)

// Magic identifies the container format and version; the version is
// part of the magic string, so another version is a different magic
// and the decoder refuses it with ErrVersion rather than misparsing it.
const Magic = "popgraph-snap/v2"

// magicPrefix is the version-independent part of the magic, used to
// distinguish "other snapshot version" from "not a snapshot at all".
const magicPrefix = "popgraph-snap/v"

const (
	headerSize       = 48
	sectionEntrySize = 32

	flagConnected = 1 << 0

	kindMeta  = 1
	kindEdges = 2

	// maxSections bounds the section table so a corrupt count cannot
	// drive a huge allocation before checksums are consulted.
	maxSections = 1024
)

// kindName names a section kind for Inspect output and error messages.
func kindName(kind uint32) string {
	switch kind {
	case kindMeta:
		return "meta"
	case kindEdges:
		return "packed-edges"
	}
	return fmt.Sprintf("unknown(%d)", kind)
}

// Snapshot is a decoded (or to-be-encoded) container.
type Snapshot struct {
	// Graph is the CSR graph. After Decode it is a *graph.Dense whose
	// edge list passed every check NewDenseFromPacked makes.
	Graph *graph.Dense
	// Source records the generator spec the graph was built from
	// (informational provenance, e.g. "ws:1000000:10:0.1").
	Source string
}

// Build starts a snapshot of g. A *graph.Dense is snapshotted as-is;
// any other implementation (the implicit Clique) is materialized into
// an explicit CSR first — note that a materialized clique runs on the
// CSR kernels after reload, whose random stream differs from the
// implicit-clique kernel's, so byte-identity to generator runs holds
// for graphs that are Dense to begin with. source records the
// generator spec for provenance.
func Build(g graph.Graph, source string) (*Snapshot, error) {
	d, ok := g.(*graph.Dense)
	if !ok {
		edges := make([]graph.Edge, 0, g.M())
		g.ForEachEdge(func(u, w int) {
			edges = append(edges, graph.Edge{U: int32(u), W: int32(w)})
		})
		var err error
		d, err = graph.NewDense(g.N(), edges, g.Name())
		if err != nil {
			return nil, fmt.Errorf("snapshot: materializing %q: %w", g.Name(), err)
		}
	}
	return &Snapshot{Graph: d, Source: source}, nil
}
