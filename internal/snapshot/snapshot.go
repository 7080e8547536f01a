// Package snapshot defines the popgraph-snap/v1 binary container: a
// graph in CSR form plus its prebuilt companion artifacts — per-edge
// weight sets with their Walker–Vose alias tables — serialized as
// 8-byte-aligned little-endian slabs so a preprocessed graph loads with
// one read and a handful of slice-header casts instead of being
// regenerated per process.
//
// # Container layout
//
// A snapshot is a 48-byte header, a section table, and checksummed
// payloads:
//
//	[0,16)   magic "popgraph-snap/v1" (the version lives in the magic)
//	[16,20)  uint32 flags (bit 0: graph verified connected at encode)
//	[20,24)  uint32 section count
//	[24,32)  uint64 total file size
//	[32,40)  int64  known diameter (-1 = unknown)
//	[40,48)  reserved, zero
//
// followed by count 32-byte section entries (kind, CRC-32C checksum of
// the payload, offset, length, reserved) and then the payloads. Every
// payload starts at an 8-byte-aligned offset, and slab fields inside a
// payload (rates, probabilities, packed edges) are laid out so their
// offsets are also 8-aligned — the invariant that lets the decoder on
// a little-endian host alias []float64/[]int64/[]int32 views straight
// into the read buffer. Hosts where that cast is unsound (big-endian,
// or a misaligned buffer) take a portable element-by-element decode of
// the same bytes; both paths produce identical values.
//
// # Determinism
//
// The encoder serializes the exact arrays the simulator executes on
// (graph.Dense's CSR slices, xrand.Alias columns), and the decoder
// revives them through fully validating constructors
// (graph.NewDenseFromCSR, xrand.AliasFromColumns). A loaded graph is therefore a *graph.Dense
// indistinguishable from the generator-built original — same packed
// edge order, same alias draw sequence, same kernel selection — so a
// run on it is byte-identical to a run on the original (the
// TestPlanEquivalenceMatrix source axis in internal/sim holds the
// contract). Connectivity is verified once at encode time and recorded
// in the header flag under the checksum; the decoder trusts the flag
// instead of re-running BFS, which is what keeps loading O(n+m) scans
// with no graph traversal.
package snapshot

import (
	"fmt"
	"math"

	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// Magic identifies the container format and version; the version is
// part of the magic string, so a future v2 is a different magic and a
// v1 decoder refuses it with ErrVersion rather than misparsing it.
const Magic = "popgraph-snap/v1"

// magicPrefix is the version-independent part of the magic, used to
// distinguish "other snapshot version" from "not a snapshot at all".
const magicPrefix = "popgraph-snap/v"

const (
	headerSize       = 48
	sectionEntrySize = 32

	flagConnected = 1 << 0

	kindMeta    = 1
	kindOffsets = 2
	kindAdj     = 3
	kindEdges   = 4
	kindWeights = 5
	// kindTable is retired: it held compiled transition tables, which
	// every process now builds once at init. The kind stays reserved,
	// and Decode refuses a file that carries one (see decode).
	kindTable = 6

	// maxSections bounds the section table so a corrupt count cannot
	// drive a huge allocation before checksums are consulted.
	maxSections = 1024
)

// kindName names a section kind for Inspect output and error messages.
func kindName(kind uint32) string {
	switch kind {
	case kindMeta:
		return "meta"
	case kindOffsets:
		return "csr-offsets"
	case kindAdj:
		return "csr-adjacency"
	case kindEdges:
		return "packed-edges"
	case kindWeights:
		return "weights"
	case kindTable:
		return "transition-table"
	}
	return fmt.Sprintf("unknown(%d)", kind)
}

// Snapshot is a decoded (or to-be-encoded) container: the graph and
// its optional prebuilt artifacts. Decoded snapshots attach themselves
// to their graph (see Of), which is how ParseScheduler finds the
// preloaded weight sets for a file:-loaded graph.
type Snapshot struct {
	// Graph is the CSR graph. After Decode it is a fully validated
	// *graph.Dense carrying this snapshot as its Aux.
	Graph *graph.Dense
	// Source records the generator spec the graph was built from
	// (informational provenance, e.g. "ws:1000000:10:0.1").
	Source string
	// Weights are named per-edge rate vectors with their prebuilt alias
	// tables, in ForEachEdge (= PackedEdges) order.
	Weights []WeightSet
}

// WeightSet is one named per-edge weight vector plus the alias table
// built over it; sim.NewWeightedFromAlias consumes the pair directly.
type WeightSet struct {
	Name  string
	Rates []float64
	Alias *xrand.Alias
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

// AddWeights builds the alias table over rates (one finite nonnegative
// rate per edge in ForEachEdge order, positive sum) and adds the named
// weight set. Names must be nonempty and unique within the snapshot.
func (s *Snapshot) AddWeights(name string, rates []float64) error {
	if err := s.checkName(name); err != nil {
		return err
	}
	if len(rates) != s.Graph.M() {
		return fmt.Errorf("snapshot: weight set %q: %d rates for %d edges", name, len(rates), s.Graph.M())
	}
	alias, err := xrand.NewAlias(rates)
	if err != nil {
		return fmt.Errorf("snapshot: weight set %q: %w", name, err)
	}
	s.Weights = append(s.Weights, WeightSet{Name: name, Rates: rates, Alias: alias})
	return nil
}

// checkName rejects empty, oversized and duplicate artifact names.
func (s *Snapshot) checkName(name string) error {
	if name == "" {
		return fmt.Errorf("snapshot: artifact name must be nonempty")
	}
	if len(name) > math.MaxUint16 {
		return fmt.Errorf("snapshot: artifact name %.32q... too long", name)
	}
	for _, w := range s.Weights {
		if w.Name == name {
			return fmt.Errorf("snapshot: duplicate artifact name %q", name)
		}
	}
	return nil
}

// WeightSet returns the named weight set, or nil.
func (s *Snapshot) WeightSet(name string) *WeightSet {
	for i := range s.Weights {
		if s.Weights[i].Name == name {
			return &s.Weights[i]
		}
	}
	return nil
}

// Of returns the snapshot a loader attached to g (Decode attaches one
// to every graph it revives), or nil for graphs built in-process. This
// is the seam ParseScheduler uses to consume preloaded weight sets
// instead of rebuilding them.
func Of(g graph.Graph) *Snapshot {
	d, ok := g.(*graph.Dense)
	if !ok {
		return nil
	}
	s, _ := d.Aux().(*Snapshot)
	return s
}
