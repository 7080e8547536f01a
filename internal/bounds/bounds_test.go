package bounds

import (
	"math"
	"testing"

	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// bruteExpansion computes β(G) exactly by enumerating all nonempty subsets
// of size <= n/2 (tiny graphs only).
func bruteExpansion(g graph.Graph) float64 {
	n := g.N()
	if n > 16 {
		panic("bruteExpansion: graph too large")
	}
	best := math.Inf(1)
	inS := make([]bool, n)
	for mask := 1; mask < 1<<n; mask++ {
		size := 0
		for v := 0; v < n; v++ {
			inS[v] = mask&(1<<v) != 0
			if inS[v] {
				size++
			}
		}
		if size == 0 || size > n/2 {
			continue
		}
		boundary := 0
		g.ForEachEdge(func(u, w int) {
			if inS[u] != inS[w] {
				boundary++
			}
		})
		if e := float64(boundary) / float64(size); e < best {
			best = e
		}
	}
	return best
}

func TestExpansionFormulasAgainstBruteForce(t *testing.T) {
	cases := []struct {
		g    graph.Graph
		want float64
	}{
		{graph.Cycle(8), ExpansionCycle(8)},
		{graph.Cycle(9), ExpansionCycle(9)},
		{graph.NewClique(6), ExpansionClique(6)},
		{graph.NewClique(7), ExpansionClique(7)},
		{graph.Star(8), ExpansionStar()},
		{graph.Hypercube(3), ExpansionHypercube()},
	}
	for _, c := range cases {
		brute := bruteExpansion(c.g)
		if math.Abs(brute-c.want) > 1e-9 {
			t.Errorf("%s: formula %v, brute force %v", c.g.Name(), c.want, brute)
		}
	}
}

func TestExpansionTorusUpperIsUpperBound(t *testing.T) {
	g := graph.Torus2D(4, 4)
	brute := bruteExpansion(g)
	if upper := ExpansionTorusUpper(4); brute > upper+1e-9 {
		t.Errorf("torus brute β %v exceeds claimed upper bound %v", brute, upper)
	}
}

func TestKnownExpansionDetection(t *testing.T) {
	r := xrand.New(1)
	known := []graph.Graph{
		graph.NewClique(10), graph.Cycle(12), graph.Star(9), graph.Hypercube(4),
	}
	for _, g := range known {
		if _, ok := KnownExpansion(g); !ok {
			t.Errorf("%s: expansion should be known", g.Name())
		}
	}
	gnp, err := graph.Gnp(20, 0.3, r)
	if err != nil {
		t.Fatal(err)
	}
	unknown := []graph.Graph{graph.Path(9), graph.Torus2D(3, 4), gnp, graph.Lollipop(4, 3)}
	for _, g := range unknown {
		if beta, ok := KnownExpansion(g); ok {
			t.Errorf("%s: unexpectedly known expansion %v", g.Name(), beta)
		}
	}
}

func TestKnownExpansionValues(t *testing.T) {
	if beta, _ := KnownExpansion(graph.NewClique(8)); beta != 4 {
		t.Errorf("K_8 β = %v", beta)
	}
	if beta, _ := KnownExpansion(graph.Cycle(16)); beta != 0.25 {
		t.Errorf("C_16 β = %v", beta)
	}
}

func TestBroadcastBoundsOrdering(t *testing.T) {
	// Lower bound must not exceed upper bound on standard families.
	cases := []struct {
		g    graph.Graph
		beta float64
	}{
		{graph.NewClique(64), ExpansionClique(64)},
		{graph.Cycle(64), ExpansionCycle(64)},
		{graph.Star(64), ExpansionStar()},
	}
	for _, c := range cases {
		n, m := c.g.N(), c.g.M()
		lo := BroadcastLower(n, m, graph.MaxDegree(c.g))
		hi := BroadcastUpper(n, m, graph.Diameter(c.g), c.beta)
		if lo > hi {
			t.Errorf("%s: lower %v > upper %v", c.g.Name(), lo, hi)
		}
	}
}

func TestBroadcastUpperPicksMin(t *testing.T) {
	// On a clique the expansion bound beats the diameter bound; with
	// beta = 0 the diameter bound must be returned.
	n, m, d := 256, 256*255/2, 1
	withBeta := BroadcastUpper(n, m, d, ExpansionClique(n))
	noBeta := BroadcastUpper(n, m, d, 0)
	if withBeta >= noBeta {
		t.Errorf("expansion bound %v should beat diameter bound %v on cliques", withBeta, noBeta)
	}
	if noBeta != BroadcastUpperDiameter(n, m, d) {
		t.Error("beta = 0 must fall back to diameter bound")
	}
}

func TestShapeFunctions(t *testing.T) {
	if SixStateUpper(1024, 100) != 100*1024*10 {
		t.Errorf("SixStateUpper = %v", SixStateUpper(1024, 100))
	}
	if IdentifierUpper(1024, 5000) != 5000+1024*10 {
		t.Errorf("IdentifierUpper = %v", IdentifierUpper(1024, 5000))
	}
	if FastUpper(1024, 5000) != 50000 {
		t.Errorf("FastUpper = %v", FastUpper(1024, 5000))
	}
}

func TestHittingFormulas(t *testing.T) {
	if HittingClique(10) != 9 {
		t.Error("clique hitting")
	}
	if HittingCycle(10) != 25 || HittingCycle(11) != 30 {
		t.Errorf("cycle hitting: %v, %v", HittingCycle(10), HittingCycle(11))
	}
	if HittingPathEnds(10) != 81 {
		t.Error("path hitting")
	}
	if HittingPopulationUpper(10, 9) != 27*10*9 {
		t.Error("population hitting upper")
	}
}

func TestPropagationLower(t *testing.T) {
	got := PropagationLower(10, 100, 2)
	want := 10.0 * 100 / (2 * math.Exp(3))
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("PropagationLower = %v, want %v", got, want)
	}
}
