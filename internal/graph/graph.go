// Package graph provides the interaction-graph substrate for the population
// protocol simulator: a compact adjacency representation, generators for the
// graph families studied in the paper (cliques, cycles, stars, tori, random
// graphs, renitent constructions, ...), and structural properties (BFS
// distances, diameter, degrees, boundaries).
//
// Graphs are connected, simple and undirected, with nodes 0..n-1. The
// scheduler of the population model samples an ordered pair of adjacent
// nodes uniformly among all 2m such pairs; SampleEdge implements exactly
// that distribution.
package graph

import (
	"errors"
	"fmt"
	"slices"

	"popgraph/internal/xrand"
)

// Graph is the read-only interface the simulator, the measurement code and
// the protocols use. Implementations must describe a connected simple
// undirected graph with nodes 0..N()-1.
type Graph interface {
	// N returns the number of nodes.
	N() int
	// M returns the number of (undirected) edges.
	M() int
	// Degree returns the number of edges incident to v.
	Degree(v int) int
	// NeighborAt returns the i-th neighbour of v, for 0 <= i < Degree(v).
	// The ordering is arbitrary but fixed.
	NeighborAt(v, i int) int
	// ForEachEdge calls fn once per undirected edge {u, w}, with u < w.
	ForEachEdge(fn func(u, w int))
	// SampleEdge returns an ordered pair (u, w) of adjacent nodes sampled
	// uniformly among all 2·M() ordered pairs; u is the initiator.
	SampleEdge(r *xrand.Rand) (u, w int)
	// Name returns a short human-readable description, e.g. "cycle-1024".
	Name() string
}

// DiameterKnower is an optional interface for graphs whose diameter is
// known analytically; Diameter consults it before running BFS.
type DiameterKnower interface {
	KnownDiameter() int
}

// Dense is the concrete adjacency-list (CSR) implementation of Graph used
// for every family except cliques (which have an implicit representation).
type Dense struct {
	n       int
	offsets []int32 // len n+1
	adj     []int32 // len 2m, neighbours of v at offsets[v]:offsets[v+1]
	edges   []int64 // len m, packed u<<32|w with u < w, for edge sampling
	name    string
	diam    int // known diameter, -1 if unknown
}

var _ Graph = (*Dense)(nil)
var _ DiameterKnower = (*Dense)(nil)

// Edge is an undirected edge {U, W}; constructors normalize U < W.
type Edge struct {
	U, W int32
}

// errors returned by constructors.
var (
	ErrDisconnected = errors.New("graph: not connected")
	ErrInvalidEdge  = errors.New("graph: invalid edge")
	ErrTooLarge     = errors.New("graph: n or 2m over 2^31-1 (int32 node ids and CSR offsets)")
)

// NewDense builds a Dense graph on n nodes from the given undirected edge
// list. It rejects self-loops, out-of-range endpoints, duplicate edges and
// disconnected graphs.
func NewDense(n int, edges []Edge, name string) (*Dense, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph %q: n must be positive, got %d: %w", name, n, ErrInvalidEdge)
	}
	if err := checkSize(name, float64(n), 2*float64(len(edges))); err != nil {
		return nil, err
	}
	norm := make([]int64, 0, len(edges))
	for _, e := range edges {
		u, w := e.U, e.W
		if u == w {
			return nil, fmt.Errorf("graph %q: self-loop at %d: %w", name, u, ErrInvalidEdge)
		}
		if u < 0 || w < 0 || int(u) >= n || int(w) >= n {
			return nil, fmt.Errorf("graph %q: edge (%d,%d) out of range [0,%d): %w", name, u, w, n, ErrInvalidEdge)
		}
		if u > w {
			u, w = w, u
		}
		norm = append(norm, int64(u)<<32|int64(w))
	}
	sorted, deg := sortEdges(n, norm)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("graph %q: duplicate edge (%d,%d): %w",
				name, sorted[i]>>32, sorted[i]&0xffffffff, ErrInvalidEdge)
		}
	}
	g := fill(n, sorted, deg, name)
	if !Connected(g) {
		return nil, fmt.Errorf("graph %q (n=%d, m=%d): %w", name, n, len(sorted), ErrDisconnected)
	}
	return g, nil
}

// NewDenseFromPacked rebuilds a Dense graph from its packed edge list,
// the slice PackedEdges returns, so a decoded snapshot is the
// generator's graph by construction: offsets and adjacency come from
// fill, the same CSR fill every generator runs. The slice is
// adopted, not copied; callers must not mutate it afterwards.
//
// It checks everything that fill relies on, in one O(m) pass: n and 2m
// within 2³¹−1, no more than m+1 nodes (fewer edges cannot connect
// them, which also bounds the allocation by the input), packed edges
// strictly ascending with 0 <= u < w < n, and diam in [-1, n). After
// the fill it runs Connected and returns ErrDisconnected if the edges
// leave a node unreached, so like every Dense constructor it returns
// only connected graphs.
func NewDenseFromPacked(n int, packed []int64, name string, diam int) (*Dense, error) {
	m := len(packed)
	if n <= 0 {
		return nil, fmt.Errorf("graph %q: n must be positive, got %d: %w", name, n, ErrInvalidEdge)
	}
	if err := checkSize(name, float64(n), 2*float64(m)); err != nil {
		return nil, err
	}
	if n > m+1 {
		return nil, fmt.Errorf("graph %q: %d edges cannot connect %d nodes: %w", name, m, n, ErrDisconnected)
	}
	if i := firstBadEdge(packed, n); i >= 0 {
		return nil, fmt.Errorf("graph %q: packed edge %d (%d,%d) out of order or out of range: %w",
			name, i, packed[i]>>32, packed[i]&0xffffffff, ErrInvalidEdge)
	}
	if diam < -1 || diam >= n {
		return nil, fmt.Errorf("graph %q: known diameter %d out of range [-1, %d): %w", name, diam, n, ErrInvalidEdge)
	}
	g := fromSorted(n, packed, name)
	if !Connected(g) {
		return nil, fmt.Errorf("graph %q (n=%d, m=%d): %w", name, n, m, ErrDisconnected)
	}
	return g.setDiam(diam), nil
}

// firstBadEdge returns the index of the first packed edge that is not
// strictly greater than its predecessor or whose endpoints are not
// 0 <= u < w < n, or -1. Strict ascent of the packed encoding implies
// sortedness and no duplicates in one comparison per edge.
//
//popcheck:kernel
func firstBadEdge(packed []int64, n int) int {
	prev := int64(-1)
	for i, e := range packed {
		u, w := e>>32, e&0xffffffff
		if e <= prev || u < 0 || u >= w || w >= int64(n) {
			return i
		}
		prev = e
	}
	return -1
}

// newDense builds the CSR structures from a normalized (u < w),
// duplicate-free packed edge list in any order, in O(n + m) plus the
// sorts of its few long buckets (star and preferential-attachment
// hubs). The slice is
// consumed: the graph keeps a sorted copy. Callers guarantee validity.
func newDense(n int, packed []int64, name string) *Dense {
	sorted, deg := sortEdges(n, packed)
	return fill(n, sorted, deg, name)
}

// fromSorted builds the CSR structures from a strictly ascending,
// normalized packed edge list, which the graph adopts. Callers
// guarantee validity.
func fromSorted(n int, packed []int64, name string) *Dense {
	deg := make([]int32, n)
	countDegrees(packed, deg)
	return fill(n, packed, deg, name)
}

// sortEdges returns packed in ascending order, in a new slice, and the
// degree of every node. One count pass gives the degrees and the size
// of each node's bucket of forward edges (those where it is the smaller
// endpoint); a scatter puts each edge in its bucket; sorting the
// buckets by the larger endpoint then sorts the whole list, since the
// packed encoding orders edges by smaller endpoint first. The result
// is exactly the list a comparison sort gives.
func sortEdges(n int, packed []int64) (sorted []int64, deg []int32) {
	deg = make([]int32, n)
	next := make([]int32, n+1)
	countForward(packed, deg, next)
	for u := 0; u < n; u++ {
		next[u+1] += next[u]
	}
	sorted = make([]int64, len(packed))
	scatterForward(packed, sorted, next)
	sortBuckets(sorted, next[:n])
	return sorted, deg
}

// countForward adds every node's degree to deg and its number of
// forward edges to fwd[u+1].
//
//popcheck:kernel
func countForward(packed []int64, deg, fwd []int32) {
	for _, e := range packed {
		u := e >> 32
		fwd[u+1]++
		deg[u]++
		deg[e&0xffffffff]++
	}
}

// scatterForward copies each edge to the next free slot of its smaller
// endpoint's bucket. next[u] starts at the bucket's first slot and ends
// one past its last.
//
//popcheck:kernel
func scatterForward(packed, sorted []int64, next []int32) {
	for _, e := range packed {
		u := e >> 32
		sorted[next[u]] = e
		next[u]++
	}
}

// sortBuckets sorts each bucket of sorted in place; bucket u ends at
// end[u] and starts where bucket u-1 ends. slices.Sort insertion-sorts
// the short buckets of sparse graphs itself.
//
//popcheck:kernel
func sortBuckets(sorted []int64, end []int32) {
	lo := int32(0)
	for _, hi := range end {
		slices.Sort(sorted[lo:hi])
		lo = hi
	}
}

// countDegrees adds every node's degree to deg.
//
//popcheck:kernel
func countDegrees(packed []int64, deg []int32) {
	for _, e := range packed {
		deg[e>>32]++
		deg[e&0xffffffff]++
	}
}

// fill builds a Dense around a sorted, normalized, duplicate-free
// packed edge list and the degrees of its nodes; deg is reused as the
// fill cursor.
func fill(n int, packed []int64, deg []int32, name string) *Dense {
	g := &Dense{
		n:       n,
		offsets: make([]int32, n+1),
		adj:     make([]int32, 2*len(packed)),
		edges:   packed,
		name:    name,
		diam:    -1,
	}
	fillCSR(packed, deg, g.offsets, g.adj)
	return g
}

// fillCSR turns degrees into offsets, then lists every edge in both
// endpoints' adjacency, in edge order.
//
//popcheck:kernel
func fillCSR(packed []int64, deg, offsets, adj []int32) {
	for v, d := range deg {
		offsets[v+1] = offsets[v] + d
	}
	cursor := deg
	copy(cursor, offsets)
	for _, e := range packed {
		u, w := int32(e>>32), int32(e&0xffffffff)
		adj[cursor[u]] = w
		cursor[u]++
		adj[cursor[w]] = u
		cursor[w]++
	}
}

// N returns the number of nodes.
func (g *Dense) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Dense) M() int { return len(g.edges) }

// Degree returns the degree of v.
func (g *Dense) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// NeighborAt returns the i-th neighbour of v.
func (g *Dense) NeighborAt(v, i int) int { return int(g.adj[int(g.offsets[v])+i]) }

// ForEachEdge calls fn once per undirected edge with u < w.
func (g *Dense) ForEachEdge(fn func(u, w int)) {
	for _, e := range g.edges {
		fn(int(e>>32), int(e&0xffffffff))
	}
}

// SampleEdge returns a uniform ordered pair of adjacent nodes.
func (g *Dense) SampleEdge(r *xrand.Rand) (int, int) {
	return g.OrderedPair(r.Uintn(uint64(2 * len(g.edges))))
}

// OrderedPair maps t, uniform in [0, 2·M()), to the ordered adjacent pair
// SampleEdge would return for that draw: undirected edge t>>1, reversed
// when t is odd. The simulator's specialized hot loop reduces its own
// randomness and calls this directly, bypassing the Graph interface.
func (g *Dense) OrderedPair(t uint64) (int, int) {
	e := g.edges[t>>1]
	u, w := int(e>>32), int(e&0xffffffff)
	if t&1 == 1 {
		return w, u
	}
	return u, w
}

// CSR returns the graph's adjacency arrays: v's neighbours are
// adj[offsets[v]:offsets[v+1]], so len(offsets) is N()+1 and len(adj)
// is 2·M(). Callers must treat both as read-only; the simulator's
// node-clock loop reads them directly so that it can also prefetch
// from them.
func (g *Dense) CSR() (offsets, adj []int32) { return g.offsets, g.adj }

// PackedEdges returns the graph's edge list as packed uint64 values
// u<<32|w with u < w, sorted ascending — the raw array OrderedPair
// indexes. Callers must treat it as read-only; the simulator hot loop
// uses it to unpack pairs branch-free without a method call per step.
func (g *Dense) PackedEdges() []int64 { return g.edges }

// Name returns the graph's description.
func (g *Dense) Name() string { return g.name }

// KnownDiameter returns the analytically known diameter, or -1.
func (g *Dense) KnownDiameter() int { return g.diam }

// setDiam is used by generators whose diameter is known in closed form.
func (g *Dense) setDiam(d int) *Dense { g.diam = d; return g }

// Clique is an implicit complete graph on n >= 2 nodes. It avoids
// materializing the Θ(n²) edge list, so million-edge cliques stay cheap.
type Clique struct {
	n int
}

var _ Graph = Clique{}
var _ DiameterKnower = Clique{}

// NewClique returns the complete graph K_n. It panics if n < 2.
func NewClique(n int) Clique {
	if n < 2 {
		panic(fmt.Sprintf("graph: clique needs n >= 2, got %d", n))
	}
	mustFit("clique", float64(n), 0) // implicit: no adjacency arrays
	return Clique{n: n}
}

// N returns the number of nodes.
func (c Clique) N() int { return c.n }

// M returns n(n-1)/2.
func (c Clique) M() int { return c.n * (c.n - 1) / 2 }

// Degree returns n-1 for every node.
func (c Clique) Degree(int) int { return c.n - 1 }

// NeighborAt enumerates all nodes except v.
func (c Clique) NeighborAt(v, i int) int {
	if i >= v {
		return i + 1
	}
	return i
}

// ForEachEdge enumerates all pairs u < w.
func (c Clique) ForEachEdge(fn func(u, w int)) {
	for u := 0; u < c.n; u++ {
		for w := u + 1; w < c.n; w++ {
			fn(u, w)
		}
	}
}

// SampleEdge returns a uniform ordered pair of distinct nodes.
func (c Clique) SampleEdge(r *xrand.Rand) (int, int) {
	u := r.Intn(c.n)
	w := r.Intn(c.n - 1)
	if w >= u {
		w++
	}
	return u, w
}

// Name returns "clique-n".
func (c Clique) Name() string { return fmt.Sprintf("clique-%d", c.n) }

// KnownDiameter returns 1.
func (c Clique) KnownDiameter() int { return 1 }
