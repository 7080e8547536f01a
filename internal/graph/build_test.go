package graph

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"popgraph/internal/xrand"
)

// refNewDense is NewDense as a comparison sort plus the fill generators
// ran before the bucket builder: normalize, slices.Sort, scan for
// duplicates, fill the CSR arrays from scratch counts, check
// connectivity by BFS, not through Connected's union-find. The builder
// must return the same arrays or an error of the same class.
func refNewDense(n int, edges []Edge) (*Dense, error) {
	if n <= 0 {
		return nil, ErrInvalidEdge
	}
	if err := checkSize("ref", float64(n), 2*float64(len(edges))); err != nil {
		return nil, err
	}
	norm := make([]int64, 0, len(edges))
	for _, e := range edges {
		u, w := e.U, e.W
		if u == w || u < 0 || w < 0 || int(u) >= n || int(w) >= n {
			return nil, ErrInvalidEdge
		}
		norm = append(norm, pack(int(u), int(w)))
	}
	slices.Sort(norm)
	for i := 1; i < len(norm); i++ {
		if norm[i] == norm[i-1] {
			return nil, ErrInvalidEdge
		}
	}
	g := refFill(n, norm)
	if slices.Contains(BFSDistances(g, 0), -1) {
		return nil, ErrDisconnected
	}
	return g, nil
}

// refFill builds the CSR arrays of a sorted, normalized, duplicate-free
// packed list with its own degree count and cursor.
func refFill(n int, packed []int64) *Dense {
	g := &Dense{n: n, offsets: make([]int32, n+1), adj: make([]int32, 2*len(packed)), edges: packed, diam: -1}
	deg := make([]int32, n)
	for _, e := range packed {
		deg[e>>32]++
		deg[e&0xffffffff]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	cursor := slices.Clone(g.offsets[:n])
	for _, e := range packed {
		u, w := int32(e>>32), int32(e&0xffffffff)
		g.adj[cursor[u]] = w
		cursor[u]++
		g.adj[cursor[w]] = u
		cursor[w]++
	}
	return g
}

// errClass names the sentinel an error wraps.
func errClass(err error) error {
	for _, c := range []error{ErrInvalidEdge, ErrDisconnected, ErrTooLarge} {
		if errors.Is(err, c) {
			return c
		}
	}
	return err
}

// sameDense reports the first difference between two graphs' arrays.
func sameDense(got, want *Dense) error {
	switch {
	case got.n != want.n:
		return fmt.Errorf("n %d, want %d", got.n, want.n)
	case !slices.Equal(got.edges, want.edges):
		return errors.New("packed edges differ")
	case !slices.Equal(got.offsets, want.offsets):
		return errors.New("offsets differ")
	case !slices.Equal(got.adj, want.adj):
		return errors.New("adjacency differs")
	}
	return nil
}

// checkNewDense compares NewDense with refNewDense on one input.
func checkNewDense(t *testing.T, n int, edges []Edge) {
	t.Helper()
	in := slices.Clone(edges)
	got, err := NewDense(n, edges, "g")
	want, wantErr := refNewDense(n, in)
	if !slices.Equal(edges, in) {
		t.Fatalf("n=%d: NewDense modified its input", n)
	}
	if (err == nil) != (wantErr == nil) || errClass(err) != errClass(wantErr) {
		t.Fatalf("n=%d, %d edges: error %v, reference %v", n, len(edges), err, wantErr)
	}
	if err == nil {
		if d := sameDense(got, want); d != nil {
			t.Fatalf("n=%d, %d edges: %v", n, len(edges), d)
		}
	}
}

// hubEdges is the length of the hub bucket in the test inputs, long
// enough that slices.Sort goes past its short-slice insertion sort.
const hubEdges = 48

// randomEdgeList returns a shuffled connected edge list on n nodes — a
// random spanning tree, extra random pairs, and a hub at node 0 whose
// bucket is hubEdges long when n allows — with defects
// mixed in at the given rates per mille.
func randomEdgeList(r *xrand.Rand, n int, dupRate, loopRate, rangeRate int) []Edge {
	var edges []Edge
	seen := map[[2]int32]bool{}
	add := func(u, w int32) {
		k := [2]int32{min(u, w), max(u, w)}
		if u != w && !seen[k] {
			seen[k] = true
			edges = append(edges, Edge{u, w})
		}
	}
	for v := 1; v < n; v++ {
		add(int32(r.Intn(v)), int32(v))
	}
	for v := 1; v <= min(n-1, hubEdges); v++ {
		add(0, int32(v))
	}
	for i := r.Intn(2*n + 1); i > 0; i-- {
		add(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	for i := range edges {
		switch k := r.Intn(1000); {
		case k < dupRate:
			e := edges[r.Intn(len(edges))]
			if r.Bool() {
				e.U, e.W = e.W, e.U
			}
			edges[i] = e
		case k < dupRate+loopRate:
			edges[i].W = edges[i].U
		case k < dupRate+loopRate+rangeRate:
			edges[i].W = int32(n + r.Intn(3))
			if r.Bool() {
				edges[i].W = -1 - edges[i].W
			}
		}
		if r.Bool() {
			edges[i].U, edges[i].W = edges[i].W, edges[i].U
		}
	}
	for i := len(edges) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	return edges
}

// TestNewDenseMatchesReference feeds NewDense shuffled edge lists, valid
// ones and ones with duplicates, self-loops, out-of-range ends or a
// missing edge that disconnects the graph.
func TestNewDenseMatchesReference(t *testing.T) {
	r := xrand.New(5)
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(120)
		var edges []Edge
		switch trial % 5 {
		case 0, 1:
			edges = randomEdgeList(r, n, 0, 0, 0)
		case 2:
			edges = randomEdgeList(r, n, 3, 0, 0)
		case 3:
			edges = randomEdgeList(r, n, 0, 2, 2)
		case 4:
			edges = randomEdgeList(r, n, 0, 0, 0)
			if len(edges) > 0 {
				edges = edges[:r.Intn(len(edges))]
			}
		}
		checkNewDense(t, n, edges)
	}
}

// TestGeneratorsMatchReferenceFill — every pinned generator's offsets
// and adjacency equal the reference fill of its packed edges, so the
// bucket builder changes no array a kernel or a BFS reads.
func TestGeneratorsMatchReferenceFill(t *testing.T) {
	for _, c := range generatorPins {
		g, err := c.build(xrand.New(7))
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if !slices.IsSorted(g.edges) {
			t.Fatalf("%s: packed edges not sorted", c.spec)
		}
		if d := sameDense(g, refFill(g.n, slices.Clone(g.edges))); d != nil {
			t.Fatalf("%s: %v", c.spec, d)
		}
	}
}

// FuzzNewDense decodes n and an edge list from the input, a byte b
// giving the end b mod (n+3) − 1, so ends fall in [-1, n+1]; NewDense
// must agree with refNewDense on arrays or error class.
func FuzzNewDense(f *testing.F) {
	enc := func(ends ...int) []byte {
		b := make([]byte, len(ends))
		for i, v := range ends {
			b[i] = byte(v + 1)
		}
		return b
	}
	f.Add(uint8(4), enc(0, 1, 1, 2, 2, 3, 3, 0))
	f.Add(uint8(3), enc(1, 0, 1, 2, 0, 1)) // duplicate
	f.Add(uint8(3), enc(1, 1, 1, 2))       // self-loop
	f.Add(uint8(3), enc(0, 3, 1, 2))       // out of range
	f.Add(uint8(4), enc(0, 1, 2, 3))       // disconnected
	var hub []int
	for v := hubEdges; v > 0; v-- {
		hub = append(hub, v, 0)
	}
	f.Add(uint8(hubEdges+1), enc(hub...)) // one long bucket
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := int(nb % 80)
		edges := make([]Edge, len(data)/2)
		for i := range edges {
			edges[i] = Edge{int32(data[2*i])%int32(n+3) - 1, int32(data[2*i+1])%int32(n+3) - 1}
		}
		checkNewDense(t, n, edges)
	})
}

// unlinked is a Graph that is not a *Dense, so Connected takes its BFS
// path on it.
type unlinked struct{ *Dense }

// TestConnectedMatchesBFS checks Connected's union-find against a BFS
// from node 0, and its merge count against n minus the number of
// components: on the random generators' edge samplers without their
// connectivity retry (so some samples are disconnected), the generators
// themselves, hand-built disconnected and tiny graphs, a Clique and a
// graph that is not a *Dense.
func TestConnectedMatchesBFS(t *testing.T) {
	var graphs []Graph
	r := xrand.New(11)
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(60)
		graphs = append(graphs, fromSorted(n, must(gnpEdges(n, 0.01+0.3*r.Float64(), r)), "gnp"))
		graphs = append(graphs, newDense(n, wsEdges(n, 2, r.Float64(), r), "ws"))
		if d := 3 + r.Intn(3); d < n && n*d%2 == 0 {
			if packed, ok := pairingAttempt(n, d, r); ok {
				graphs = append(graphs, newDense(n, packed, "regular"))
			}
		}
	}
	graphs = append(graphs,
		must(Gnp(40, 0.1, r)),
		must(WattsStrogatz(50, 4, 0.3, r)),
		must(BarabasiAlbert(50, 2, r)),
		must(RandomRegular(50, 3, r)),
		fromSorted(6, []int64{pack(0, 1), pack(0, 2), pack(3, 4), pack(4, 5)}, "two components"),
		fromSorted(4, []int64{pack(0, 1), pack(1, 2)}, "isolated node"),
		fromSorted(1, nil, "n=1"),
		fromSorted(2, nil, "n=2, no edges"),
		NewClique(5),
		unlinked{Cycle(7)},
		unlinked{fromSorted(4, []int64{pack(0, 1), pack(2, 3)}, "unlinked pairs")},
	)
	connected := 0
	for i, g := range graphs {
		seen := make([]bool, g.N())
		comps := 0
		for v := range seen {
			if !seen[v] {
				comps++
				for w, d := range BFSDistances(g, v) {
					seen[w] = seen[w] || d >= 0
				}
			}
		}
		if got := Connected(g); got != (comps == 1) {
			t.Fatalf("graph %d (%s, n=%d, m=%d): Connected %v, BFS finds %d components", i, g.Name(), g.N(), g.M(), got, comps)
		}
		if comps == 1 {
			connected++
		}
		if d, ok := g.(*Dense); ok {
			if got := unionEdges(d.edges, make([]int32, d.n)); got != d.n-comps {
				t.Fatalf("graph %d (%s): %d merges, want n − components = %d", i, g.Name(), got, d.n-comps)
			}
		}
	}
	if connected == 0 || connected == len(graphs) {
		t.Fatalf("%d of %d graphs connected: the inputs must cover both answers", connected, len(graphs))
	}
}

// must returns v, panicking on a non-nil err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
