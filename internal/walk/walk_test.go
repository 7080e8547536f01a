package walk

import (
	"math"
	"testing"

	"popgraph/internal/bounds"
	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

func TestExactHittingClique(t *testing.T) {
	// H(u, v) = n − 1 on K_n for any u != v.
	for _, n := range []int{3, 5, 10, 20} {
		g := graph.NewClique(n)
		h := ClassicHittingExact(g, 0)
		for v := 1; v < n; v++ {
			if math.Abs(h[v]-float64(n-1)) > 1e-6 {
				t.Fatalf("K_%d: h(%d) = %v, want %d", n, v, h[v], n-1)
			}
		}
		if h[0] != 0 {
			t.Fatalf("h(target) = %v", h[0])
		}
	}
}

func TestExactHittingCycle(t *testing.T) {
	// On C_n, H(u, v) = k(n−k) where k = dist(u, v).
	for _, n := range []int{4, 7, 12} {
		g := graph.Cycle(n)
		h := ClassicHittingExact(g, 0)
		for v := 1; v < n; v++ {
			k := v
			if n-v < k {
				k = n - v
			}
			want := float64(k * (n - k))
			if math.Abs(h[v]-want) > 1e-6 {
				t.Fatalf("C_%d: h(%d) = %v, want %v", n, v, h[v], want)
			}
		}
	}
}

func TestExactHittingPathEnds(t *testing.T) {
	// Endpoint to endpoint on P_n: (n−1)².
	for _, n := range []int{2, 5, 16} {
		g := graph.Path(n)
		h := ClassicHittingExact(g, n-1)
		want := bounds.HittingPathEnds(n)
		if math.Abs(h[0]-want) > 1e-6 {
			t.Fatalf("P_%d: h(0 -> %d) = %v, want %v", n, n-1, h[0], want)
		}
	}
}

func TestWorstHittingExactMatchesFormulas(t *testing.T) {
	cases := []struct {
		g    graph.Graph
		want float64
	}{
		{graph.NewClique(9), bounds.HittingClique(9)},
		{graph.Cycle(10), bounds.HittingCycle(10)},
		{graph.Cycle(11), bounds.HittingCycle(11)},
		{graph.Path(8), bounds.HittingPathEnds(8)},
	}
	for _, c := range cases {
		if got := ClassicWorstHittingExact(c.g); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("%s: H(G) = %v, want %v", c.g.Name(), got, c.want)
		}
	}
}

func TestClassicHittingMCMatchesExact(t *testing.T) {
	g := graph.Cycle(8)
	want := ClassicHittingExact(g, 0)
	r := xrand.New(3)
	for _, v := range []int{1, 4} {
		got := ClassicHittingMC(g, v, 0, r, 3000)
		if math.Abs(got-want[v]) > 0.15*want[v] {
			t.Errorf("MC h(%d) = %v, exact %v", v, got, want[v])
		}
	}
}

// TestLemma17PopulationVsClassic — H_P(u, v) <= 27·n·H(G); also sanity that
// the population walk is roughly m/deg-times slower than the classic one.
func TestLemma17PopulationVsClassic(t *testing.T) {
	graphs := []graph.Graph{graph.Cycle(12), graph.NewClique(8), graph.Star(10)}
	r := xrand.New(7)
	for _, g := range graphs {
		hExact := ClassicWorstHittingExact(g)
		upper := bounds.HittingPopulationUpper(g.N(), hExact)
		hp := PopulationHittingMC(g, 1, 0, r, 400)
		if hp > upper {
			t.Errorf("%s: H_P(1,0) = %v exceeds 27·n·H(G) = %v", g.Name(), hp, upper)
		}
	}
}

// TestPopulationWalkSlowdown — on a regular graph, each population-walk
// move takes Geom(deg/m) scheduler steps, so H_P(u,v) ≈ (m/deg)·H(u,v).
func TestPopulationWalkSlowdown(t *testing.T) {
	g := graph.Cycle(10) // deg 2, m = 10: slowdown 5
	r := xrand.New(11)
	exact := ClassicHittingExact(g, 0)[5]
	hp := PopulationHittingMC(g, 5, 0, r, 2000)
	want := exact * float64(g.M()) / 2
	if math.Abs(hp-want) > 0.15*want {
		t.Errorf("H_P = %v, want ≈ %v", hp, want)
	}
}

// TestLemma18MeetingBound — M(u, v) <= 2·H_P(G). We bound H_P(G) by
// 27·n·H(G) (Lemma 17) and check the Monte-Carlo meeting time against it.
func TestLemma18MeetingBound(t *testing.T) {
	r := xrand.New(13)
	for _, g := range []graph.Graph{graph.Cycle(10), graph.NewClique(8)} {
		h := ClassicWorstHittingExact(g)
		limit := 2 * bounds.HittingPopulationUpper(g.N(), h)
		m := MeetingMC(g, 0, g.N()/2, r, 300)
		if m > limit {
			t.Errorf("%s: M = %v exceeds 2·27·n·H = %v", g.Name(), m, limit)
		}
	}
}

// TestPopulationExactRegularSlowdown — on regular graphs the population
// walk is exactly the classic walk slowed by m/Δ.
func TestPopulationExactRegularSlowdown(t *testing.T) {
	for _, g := range []graph.Graph{graph.Cycle(12), graph.Hypercube(4), graph.NewClique(8)} {
		classic := ClassicHittingExact(g, 0)
		pop := PopulationHittingExact(g, 0)
		factor := float64(g.M()) / float64(g.Degree(0))
		for v := 1; v < g.N(); v++ {
			if math.Abs(pop[v]-factor*classic[v]) > 1e-6*pop[v]+1e-9 {
				t.Fatalf("%s: h_P(%d) = %v, want %v", g.Name(), v, pop[v], factor*classic[v])
			}
		}
	}
}

// TestPopulationExactMatchesMC validates the exact solver against Monte
// Carlo on an irregular graph.
func TestPopulationExactMatchesMC(t *testing.T) {
	g := graph.Lollipop(5, 4)
	exact := PopulationHittingExact(g, 0)
	r := xrand.New(23)
	for _, v := range []int{3, g.N() - 1} {
		mc := PopulationHittingMC(g, v, 0, r, 2000)
		if math.Abs(mc-exact[v]) > 0.1*exact[v] {
			t.Errorf("h_P(%d): mc %v, exact %v", v, mc, exact[v])
		}
	}
}

// TestLemma17Exact verifies H_P(G) <= 27·n·H(G) exactly on several
// families, including irregular ones.
func TestLemma17Exact(t *testing.T) {
	for _, g := range []graph.Graph{
		graph.Cycle(10), graph.Star(10), graph.Lollipop(5, 5), graph.Path(10),
	} {
		hp := PopulationWorstHittingExact(g)
		h := ClassicWorstHittingExact(g)
		if hp > 27*float64(g.N())*h {
			t.Errorf("%s: H_P = %v exceeds 27nH = %v", g.Name(), hp, 27*float64(g.N())*h)
		}
		if hp < h {
			t.Errorf("%s: population walk cannot be faster than classic in steps", g.Name())
		}
	}
}

// TestMeetingExactMatchesMC validates the product-chain solver against
// Monte Carlo.
func TestMeetingExactMatchesMC(t *testing.T) {
	g := graph.Cycle(8)
	exact := MeetingExact(g)
	r := xrand.New(29)
	for _, pair := range [][2]int{{0, 4}, {0, 1}, {2, 7}} {
		mc := MeetingMC(g, pair[0], pair[1], r, 3000)
		want := exact[pair[0]][pair[1]]
		if math.Abs(mc-want) > 0.1*want {
			t.Errorf("M(%d,%d): mc %v, exact %v", pair[0], pair[1], mc, want)
		}
	}
}

func TestMeetingExactSymmetricZeroDiagonal(t *testing.T) {
	g := graph.Lollipop(4, 3)
	m := MeetingExact(g)
	for u := 0; u < g.N(); u++ {
		if m[u][u] != 0 {
			t.Fatalf("M(%d,%d) = %v", u, u, m[u][u])
		}
		for v := u + 1; v < g.N(); v++ {
			if m[u][v] != m[v][u] {
				t.Fatalf("asymmetric meeting time at (%d,%d)", u, v)
			}
			if m[u][v] <= 0 {
				t.Fatalf("nonpositive M(%d,%d) = %v", u, v, m[u][v])
			}
		}
	}
}

// TestLemma18Exact verifies M(u,v) <= 2·H_P(G) exactly for all pairs on
// several families, including irregular graphs.
func TestLemma18Exact(t *testing.T) {
	for _, g := range []graph.Graph{
		graph.Cycle(10), graph.NewClique(8), graph.Star(9),
		graph.Lollipop(4, 4), graph.Path(9),
	} {
		hp := PopulationWorstHittingExact(g)
		meet := MeetingExact(g)
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				if meet[u][v] > 2*hp+1e-6 {
					t.Errorf("%s: M(%d,%d) = %v exceeds 2·H_P = %v",
						g.Name(), u, v, meet[u][v], 2*hp)
				}
			}
		}
	}
}

// TestMeetingExactAdjacentPairOnEdgeGraph — on K_2 the two walks meet when
// the single edge is sampled: M = 1 step exactly.
func TestMeetingExactAdjacentPairOnEdgeGraph(t *testing.T) {
	g := graph.Path(2)
	m := MeetingExact(g)
	if math.Abs(m[0][1]-1) > 1e-9 {
		t.Fatalf("M(0,1) on K_2 = %v, want 1", m[0][1])
	}
}

func TestMeetingMCPanicsOnSameStart(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MeetingMC(graph.Cycle(5), 2, 2, xrand.New(1), 1)
}

func TestWorstHittingMCNearExact(t *testing.T) {
	g := graph.Path(10) // worst pair is end-to-end, included via extreme degrees
	r := xrand.New(17)
	got := WorstHittingMC(g, r, 4, 2000)
	want := bounds.HittingPathEnds(10)
	if got < 0.8*want || got > 1.2*want {
		t.Errorf("H(G) MC = %v, want ≈ %v", got, want)
	}
}

// TestProposition20DenseRandomHitting — H(G(n, p)) ∈ O(n) for constant p;
// measured on a modest instance, H(G)/n should be a small constant.
func TestProposition20DenseRandomHitting(t *testing.T) {
	r := xrand.New(19)
	g, err := graph.Gnp(96, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	h := ClassicWorstHittingExact(g)
	if ratio := h / float64(g.N()); ratio > 6 {
		t.Errorf("H(G)/n = %v too large for dense random graph", ratio)
	}
}

func TestExactHittingValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ClassicHittingExact(graph.Cycle(5), 9)
}

// MeetingMC estimates M(u, v): the expected number of scheduler steps
// until population-model walks started at u and v != u meet, i.e. occupy
// the two endpoints of the sampled edge. Walks never co-locate: any
// sampled edge that would merge them is a meeting.
func MeetingMC(g graph.Graph, u, v int, r *xrand.Rand, trials int) float64 {
	if u == v {
		panic("walk: meeting time needs distinct starts")
	}
	if trials <= 0 {
		trials = 16
	}
	var total int64
	for i := 0; i < trials; i++ {
		x, y := u, v
		var steps int64
		for {
			a, b := g.SampleEdge(r)
			steps++
			if (x == a && y == b) || (x == b && y == a) {
				break
			}
			switch {
			case x == a:
				x = b
			case x == b:
				x = a
			}
			switch {
			case y == a:
				y = b
			case y == b:
				y = a
			}
		}
		total += steps
	}
	return float64(total) / float64(trials)
}

// PopulationHittingMC estimates H_P(u, v): the expected number of
// scheduler steps for a population-model walk from u to reach v.
func PopulationHittingMC(g graph.Graph, u, v int, r *xrand.Rand, trials int) float64 {
	if trials <= 0 {
		trials = 16
	}
	var total int64
	for i := 0; i < trials; i++ {
		x := u
		var steps int64
		for x != v {
			a, b := g.SampleEdge(r)
			steps++
			switch x {
			case a:
				x = b
			case b:
				x = a
			}
		}
		total += steps
	}
	return float64(total) / float64(trials)
}
