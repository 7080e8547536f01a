// Package snapshot defines the popgraph-snap/v3 binary format: a graph
// as its sorted packed edge list, serialized as an 8-byte-aligned
// little-endian slab so a preprocessed graph loads with one read and a
// single checked pass instead of being regenerated per process. A run
// is a fixed graph plus a scheduler over it, and every scheduler is
// rebuilt from its spec, so the graph is all a snapshot carries.
//
// # Layout
//
// A snapshot is a 48-byte header, two strings and the edge slab:
//
//	[0,16)   magic "popgraph-snap/v3" (the version lives in the magic)
//	[16,24)  uint64 n
//	[24,32)  uint64 m
//	[32,40)  int64  known diameter (-1 = unknown)
//	[40,42)  uint16 graph name length
//	[42,44)  uint16 source spec length
//	[44,48)  uint32 CRC-32C of every byte of the file except these four
//	[48,…)   graph name, source spec, zero padding to a multiple of 8
//	then     m int64 packed edges u<<32|w, strictly ascending
//
// The edge slab starts at an 8-byte-aligned offset, which lets the
// decoder on a little-endian host alias the []int64 slab straight into
// an 8-aligned read buffer. Hosts where that cast is unsound
// (big-endian, or a misaligned buffer) take a portable
// element-by-element decode of the same bytes; both paths produce
// identical values.
//
// # Determinism
//
// The encoder serializes the packed edge list the simulator samples
// from, and the decoder rebuilds the CSR arrays from it through
// graph.NewDenseFromPacked, which checks the list, runs the
// generators' own CSR fill and then checks connectivity. A loaded
// graph is therefore a *graph.Dense equal to the generator-built
// original — same packed edge order, same offsets and adjacency, same
// kernel selection — so a run on it is byte-identical to a run on the
// original (the TestPlanEquivalenceMatrix source axis in internal/sim
// holds the contract).
package snapshot

import "popgraph/internal/graph"

// Magic identifies the format and version; the version is part of the
// magic string, so another version is a different magic and the
// decoder refuses it with ErrVersion rather than misparsing it.
const Magic = "popgraph-snap/v3"

// magicPrefix is the version-independent part of the magic, used to
// distinguish "other snapshot version" from "not a snapshot at all".
const magicPrefix = "popgraph-snap/v"

const (
	headerSize = 48
	// crcOffset is where the header's checksum field sits; the
	// checksum covers the bytes before it and everything after the
	// header.
	crcOffset = 44
)

// Snapshot is a decoded (or to-be-encoded) graph file.
type Snapshot struct {
	// Graph is the CSR graph. After Decode it is a *graph.Dense whose
	// edge list passed every check NewDenseFromPacked makes, connectivity
	// included.
	Graph *graph.Dense
	// Source records the generator spec the graph was built from
	// (informational provenance, e.g. "ws:1000000:10:0.1").
	Source string
}
