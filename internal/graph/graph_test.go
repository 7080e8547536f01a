package graph

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"popgraph/internal/xrand"
)

// checkInvariants validates the structural invariants every Graph must
// satisfy: consistent degrees, symmetric adjacency, edge count, simplicity.
func checkInvariants(t *testing.T, g Graph) {
	t.Helper()
	n, m := g.N(), g.M()
	if n <= 0 {
		t.Fatalf("%s: nonpositive n", g.Name())
	}
	degSum := 0
	for v := 0; v < n; v++ {
		degSum += g.Degree(v)
	}
	if degSum != 2*m {
		t.Fatalf("%s: degree sum %d != 2m = %d", g.Name(), degSum, 2*m)
	}
	// Adjacency symmetry + no self loops + no duplicate neighbours.
	type key struct{ u, w int }
	seen := make(map[key]bool, 2*m)
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		local := make(map[int]bool, deg)
		for i := 0; i < deg; i++ {
			w := g.NeighborAt(v, i)
			if w == v {
				t.Fatalf("%s: self loop at %d", g.Name(), v)
			}
			if w < 0 || w >= n {
				t.Fatalf("%s: neighbour %d of %d out of range", g.Name(), w, v)
			}
			if local[w] {
				t.Fatalf("%s: duplicate neighbour %d of %d", g.Name(), w, v)
			}
			local[w] = true
			seen[key{v, w}] = true
		}
	}
	for k := range seen {
		if !seen[key{k.w, k.u}] {
			t.Fatalf("%s: asymmetric adjacency %v", g.Name(), k)
		}
	}
	// ForEachEdge agrees with adjacency.
	count := 0
	g.ForEachEdge(func(u, w int) {
		if u >= w {
			t.Fatalf("%s: ForEachEdge gave u >= w: (%d,%d)", g.Name(), u, w)
		}
		if !seen[key{u, w}] || !seen[key{w, u}] {
			t.Fatalf("%s: ForEachEdge edge (%d,%d) not in adjacency", g.Name(), u, w)
		}
		count++
	})
	if count != m {
		t.Fatalf("%s: ForEachEdge yielded %d edges, M() = %d", g.Name(), count, m)
	}
	if !Connected(g) {
		t.Fatalf("%s: not connected", g.Name())
	}
}

func TestNewDenseValidation(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
		err   error
	}{
		{"self-loop", 3, []Edge{{0, 0}, {0, 1}, {1, 2}}, ErrInvalidEdge},
		{"out-of-range", 3, []Edge{{0, 1}, {1, 3}}, ErrInvalidEdge},
		{"negative", 3, []Edge{{-1, 1}, {1, 2}}, ErrInvalidEdge},
		{"duplicate", 3, []Edge{{0, 1}, {1, 0}, {1, 2}}, ErrInvalidEdge},
		{"disconnected", 4, []Edge{{0, 1}, {2, 3}}, ErrDisconnected},
		{"zero-n", 0, nil, ErrInvalidEdge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewDense(c.n, c.edges, c.name)
			if !errors.Is(err, c.err) {
				t.Fatalf("got %v, want %v", err, c.err)
			}
		})
	}
}

func TestNewDenseValid(t *testing.T) {
	g, err := NewDense(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, "square")
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("degree of %d is %d", v, g.Degree(v))
		}
	}
}

func TestGeneratorsInvariantsAndCounts(t *testing.T) {
	r := xrand.New(1)
	gnp, err := Gnp(60, 0.2, r)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := RandomRegular(50, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		g       Graph
		n, m, d int // expected; d = diameter, -1 to skip
	}{
		{NewClique(8), 8, 28, 1},
		{Cycle(9), 9, 9, 4},
		{Cycle(10), 10, 10, 5},
		{Path(7), 7, 6, 6},
		{Star(12), 12, 11, 2},
		{Star(2), 2, 1, 1},
		{Torus2D(4, 5), 20, 40, 4},
		{TorusK(4, 5), 20, 40, 4},
		{TorusK(3, 3, 3), 27, 81, 3},
		{TorusK(5), 5, 5, 2},
		{Grid2D(3, 4), 12, 17, 5},
		{Hypercube(4), 16, 32, 4},
		{Lollipop(5, 3), 8, 13, 4},
		{Barbell(4, 2), 10, 15, 5},
		{gnp, 60, gnp.M(), -1},
		{reg, 50, 100, -1},
	}
	for _, c := range cases {
		t.Run(c.g.Name(), func(t *testing.T) {
			checkInvariants(t, c.g)
			if c.g.N() != c.n {
				t.Errorf("n = %d, want %d", c.g.N(), c.n)
			}
			if c.g.M() != c.m {
				t.Errorf("m = %d, want %d", c.g.M(), c.m)
			}
			if c.d >= 0 {
				if got := Diameter(c.g); got != c.d {
					t.Errorf("diameter = %d, want %d", got, c.d)
				}
				// Known diameters must match exact BFS computation.
				if got := diameterExact(c.g); got != c.d {
					t.Errorf("exact diameter = %d, want %d", got, c.d)
				}
			}
		})
	}
}

func TestWattsStrogatz(t *testing.T) {
	r := xrand.New(3)
	for _, beta := range []float64{0, 0.1, 1} {
		g, err := WattsStrogatz(40, 4, beta, r)
		if err != nil {
			t.Fatalf("beta %v: %v", beta, err)
		}
		checkInvariants(t, g)
		// Rewiring moves edges, never adds or removes: m = n·k/2 always.
		if g.N() != 40 || g.M() != 80 {
			t.Fatalf("beta %v: n=%d m=%d, want 40, 80", beta, g.N(), g.M())
		}
	}
	// beta = 0 is exactly the ring lattice: deterministic, diameter n/k·…
	// — node 0's neighbours are ±1, ±2 around the ring.
	g, err := WattsStrogatz(10, 4, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{1: true, 2: true, 8: true, 9: true}
	for i := 0; i < g.Degree(0); i++ {
		if !want[g.NeighborAt(0, i)] {
			t.Fatalf("lattice neighbour %d of node 0 unexpected", g.NeighborAt(0, i))
		}
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	r := xrand.New(1)
	cases := []struct {
		name string
		n, k int
		beta float64
	}{
		{"odd-k", 10, 3, 0.1},
		{"zero-k", 10, 0, 0.1},
		{"k-too-big", 8, 8, 0.1},
		{"tiny-n", 2, 2, 0.1},
		{"beta-negative", 10, 4, -0.1},
		{"beta-above-one", 10, 4, 1.5},
		{"beta-nan", 10, 4, math.NaN()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := WattsStrogatz(c.n, c.k, c.beta, r); !errors.Is(err, ErrInvalidEdge) {
				t.Fatalf("got %v, want ErrInvalidEdge", err)
			}
		})
	}
}

func TestWattsStrogatzDeterministic(t *testing.T) {
	build := func() *Dense {
		g, err := WattsStrogatz(30, 4, 0.3, xrand.New(9))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.PackedEdges(), b.PackedEdges()) {
		t.Fatal("same seed produced different Watts–Strogatz graphs")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	r := xrand.New(4)
	g, err := BarabasiAlbert(50, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	// Seed clique on m+1 nodes plus m edges per later node.
	wantM := 3*4/2 + (50-4)*3
	if g.N() != 50 || g.M() != wantM {
		t.Fatalf("n=%d m=%d, want 50, %d", g.N(), g.M(), wantM)
	}
	// Preferential attachment produces hubs: the max degree must clearly
	// exceed the minimum possible degree m.
	if MaxDegree(g) < 3*3 {
		t.Fatalf("max degree %d suspiciously flat for preferential attachment", MaxDegree(g))
	}
	if MinDegree(g) < 3 {
		t.Fatalf("min degree %d below attachment count", MinDegree(g))
	}
	// m = n-1 edge case: every new node attaches to all predecessors.
	k, err := BarabasiAlbert(5, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if k.M() != 10 {
		t.Fatalf("ba(5,4) m=%d, want complete graph's 10", k.M())
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	r := xrand.New(1)
	for _, c := range [][2]int{{10, 0}, {5, 5}, {5, 6}, {1, 1}} {
		if _, err := BarabasiAlbert(c[0], c[1], r); !errors.Is(err, ErrInvalidEdge) {
			t.Fatalf("BarabasiAlbert(%d, %d): got %v, want ErrInvalidEdge", c[0], c[1], err)
		}
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	build := func() *Dense {
		g, err := BarabasiAlbert(40, 2, xrand.New(17))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.PackedEdges(), b.PackedEdges()) {
		t.Fatal("same seed produced different Barabási–Albert graphs")
	}
}

func TestTorusKMatchesTorus2D(t *testing.T) {
	// Same node indexing (row-major), so the edge sets must coincide.
	a, b := Torus2D(4, 6), TorusK(4, 6)
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", a.N(), a.M(), b.N(), b.M())
	}
	type key struct{ u, w int }
	edges := map[key]bool{}
	a.ForEachEdge(func(u, w int) { edges[key{u, w}] = true })
	b.ForEachEdge(func(u, w int) {
		if !edges[key{u, w}] {
			t.Fatalf("TorusK edge (%d,%d) not in Torus2D", u, w)
		}
	})
}

func TestTorusKRegularity(t *testing.T) {
	g := TorusK(4, 4, 4)
	if !IsRegular(g) || g.Degree(0) != 6 {
		t.Fatalf("3-d torus must be 6-regular, degree(0) = %d", g.Degree(0))
	}
	checkInvariants(t, g)
}

func TestTorusKValidation(t *testing.T) {
	for _, f := range []func(){
		func() { TorusK() },
		func() { TorusK(2, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRandomRegularDegrees(t *testing.T) {
	r := xrand.New(7)
	for _, c := range []struct{ n, d int }{{20, 3}, {40, 4}, {30, 6}, {64, 8}} {
		if c.n*c.d%2 != 0 {
			continue
		}
		g, err := RandomRegular(c.n, c.d, r)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", c.n, c.d, err)
		}
		for v := 0; v < c.n; v++ {
			if g.Degree(v) != c.d {
				t.Fatalf("RandomRegular(%d,%d): degree(%d) = %d", c.n, c.d, v, g.Degree(v))
			}
		}
		if !IsRegular(g) {
			t.Fatalf("IsRegular false for regular graph")
		}
	}
}

func TestRandomRegularRejectsInvalid(t *testing.T) {
	r := xrand.New(1)
	for _, c := range []struct{ n, d int }{{10, 2}, {5, 5}, {7, 3}} {
		if _, err := RandomRegular(c.n, c.d, r); err == nil {
			t.Errorf("RandomRegular(%d,%d) should fail", c.n, c.d)
		}
	}
}

func TestGnpEdgeDensity(t *testing.T) {
	r := xrand.New(5)
	const n, p = 200, 0.1
	total := 0.0
	const trials = 20
	for i := 0; i < trials; i++ {
		g, err := Gnp(n, p, r)
		if err != nil {
			t.Fatal(err)
		}
		total += float64(g.M())
	}
	mean := total / trials
	want := p * float64(n) * float64(n-1) / 2
	if mean < 0.9*want || mean > 1.1*want {
		t.Fatalf("Gnp mean edges %v, want ~%v", mean, want)
	}
}

func TestUnrankPair(t *testing.T) {
	n := 6
	rank := int64(0)
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			gu, gw := unrankPair(rank, n)
			if gu != u || gw != w {
				t.Fatalf("unrankPair(%d) = (%d,%d), want (%d,%d)", rank, gu, gw, u, w)
			}
			rank++
		}
	}
}

func TestSampleEdgeUniform(t *testing.T) {
	// On a path 0-1-2, ordered pairs are (0,1),(1,0),(1,2),(2,1) each w.p. 1/4.
	g := Path(3)
	r := xrand.New(3)
	counts := map[[2]int]int{}
	const trials = 40000
	for i := 0; i < trials; i++ {
		u, w := g.SampleEdge(r)
		counts[[2]int{u, w}]++
	}
	if len(counts) != 4 {
		t.Fatalf("expected 4 ordered pairs, got %v", counts)
	}
	for pair, c := range counts {
		if c < trials/4-600 || c > trials/4+600 {
			t.Errorf("pair %v count %d far from %d", pair, c, trials/4)
		}
	}
}

func TestCliqueSampleEdgeValid(t *testing.T) {
	g := NewClique(5)
	r := xrand.New(9)
	for i := 0; i < 10000; i++ {
		u, w := g.SampleEdge(r)
		if u == w || u < 0 || w < 0 || u >= 5 || w >= 5 {
			t.Fatalf("bad sample (%d,%d)", u, w)
		}
	}
}

func TestBFSDistancesOnCycle(t *testing.T) {
	g := Cycle(8)
	dist := BFSDistances(g, 0)
	want := []int32{0, 1, 2, 3, 4, 3, 2, 1}
	for v, d := range dist {
		if d != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, d, want[v])
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := Star(10)
	if MaxDegree(g) != 9 || MinDegree(g) != 1 {
		t.Fatalf("star degrees: max %d min %d", MaxDegree(g), MinDegree(g))
	}
	if IsRegular(g) {
		t.Fatal("star is not regular")
	}
	if !IsRegular(Cycle(5)) {
		t.Fatal("cycle is regular")
	}
}

func TestBall(t *testing.T) {
	g := Path(10)
	in := Ball(g, []int{5}, 2)
	for v := 0; v < 10; v++ {
		want := v >= 3 && v <= 7
		if in[v] != want {
			t.Fatalf("ball membership of %d = %v, want %v", v, in[v], want)
		}
	}
	// Ball around a set.
	in = Ball(g, []int{0, 9}, 1)
	for v := 0; v < 10; v++ {
		want := v <= 1 || v >= 8
		if in[v] != want {
			t.Fatalf("set-ball membership of %d = %v", v, in[v])
		}
	}
}

func TestEccentricityAndDoubleSweep(t *testing.T) {
	g := Path(30)
	if e := Eccentricity(g, 0); e != 29 {
		t.Fatalf("ecc(0) = %d", e)
	}
	if e := Eccentricity(g, 15); e != 15 {
		t.Fatalf("ecc(15) = %d", e)
	}
	if d := diameterDoubleSweep(g); d != 29 {
		t.Fatalf("double sweep on path = %d, want 29", d)
	}
}

func TestDiameterKnownMatchesExact(t *testing.T) {
	// Torus diameters with odd dims exercise the floor arithmetic.
	for _, g := range []*Dense{Torus2D(3, 3), Torus2D(5, 7), Torus2D(6, 4)} {
		if got, want := g.KnownDiameter(), diameterExact(g); got != want {
			t.Errorf("%s: known %d != exact %d", g.Name(), got, want)
		}
	}
}

func BenchmarkSampleEdgeDense(b *testing.B) {
	g := Cycle(1 << 12)
	r := xrand.New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		u, w := g.SampleEdge(r)
		sink += u + w
	}
	_ = sink
}

func BenchmarkSampleEdgeClique(b *testing.B) {
	g := NewClique(1 << 12)
	r := xrand.New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		u, w := g.SampleEdge(r)
		sink += u + w
	}
	_ = sink
}

func BenchmarkBFS(b *testing.B) {
	g := Torus2D(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFSDistances(g, i%g.N())
	}
}

// TestNewDenseFromPacked checks the snapshot revival path: a generator's
// packed edge list rebuilds the generator's exact CSR arrays, and every
// class of malformed or disconnected edge list is an error, never a
// panic.
func TestNewDenseFromPacked(t *testing.T) {
	orig := Torus2D(3, 4)
	n := orig.N()
	g, err := NewDenseFromPacked(n, append([]int64(nil), orig.PackedEdges()...), orig.Name(), orig.KnownDiameter())
	if err != nil {
		t.Fatalf("NewDenseFromPacked: %v", err)
	}
	if g.N() != n || g.Name() != orig.Name() || g.KnownDiameter() != orig.KnownDiameter() ||
		!reflect.DeepEqual(g.offsets, orig.offsets) || !reflect.DeepEqual(g.adj, orig.adj) ||
		!reflect.DeepEqual(g.edges, orig.edges) {
		t.Fatalf("revived graph differs from the generator's")
	}

	edge := func(u, w int) int64 { return int64(u)<<32 | int64(w) }
	cases := []struct {
		name    string
		n       int
		mutate  func(p []int64) []int64
		diam    int
		wantErr error
	}{
		{"zero nodes", 0, func(p []int64) []int64 { return nil }, -1, ErrInvalidEdge},
		{"too many nodes", 1 << 31, func(p []int64) []int64 { return p }, -1, ErrTooLarge},
		{"too few edges to connect", n, func(p []int64) []int64 { return p[:n-2] }, -1, ErrDisconnected},
		// Two triangles: strictly ascending and n <= m+1, so only the
		// connectivity check after the fill can refuse it.
		{"two components", 6, func([]int64) []int64 {
			return []int64{edge(0, 1), edge(0, 2), edge(1, 2), edge(3, 4), edge(3, 5), edge(4, 5)}
		}, -1, ErrDisconnected},
		{"swapped edges", n, func(p []int64) []int64 { p[0], p[1] = p[1], p[0]; return p }, -1, ErrInvalidEdge},
		{"duplicate edge", n, func(p []int64) []int64 { p[1] = p[0]; return p }, -1, ErrInvalidEdge},
		{"endpoint out of range", n, func(p []int64) []int64 { p[len(p)-1] = edge(n-1, n); return p }, -1, ErrInvalidEdge},
		{"self-loop", n, func(p []int64) []int64 { p[0] = edge(0, 0); return p }, -1, ErrInvalidEdge},
		{"reversed edge", n, func(p []int64) []int64 { p[0] = edge(1, 0); return p }, -1, ErrInvalidEdge},
		{"negative endpoint", n, func(p []int64) []int64 { p[0] = -1 << 32; return p }, -1, ErrInvalidEdge},
		{"diameter out of range", n, func(p []int64) []int64 { return p }, n, ErrInvalidEdge},
		{"diameter below -1", n, func(p []int64) []int64 { return p }, -2, ErrInvalidEdge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mutate(append([]int64(nil), orig.PackedEdges()...))
			_, err := NewDenseFromPacked(tc.n, p, "bad", tc.diam)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v, want %v", err, tc.wantErr)
			}
		})
	}
}
