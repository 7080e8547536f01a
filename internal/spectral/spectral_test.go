package spectral

import (
	"math"
	"testing"

	"popgraph/internal/bounds"
	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

func TestLambda2Cycle(t *testing.T) {
	// Normalized Laplacian of C_n has eigenvalues 1 − cos(2πk/n);
	// λ₂ = 1 − cos(2π/n).
	for _, n := range []int{8, 16, 32} {
		g := graph.Cycle(n)
		res := Analyze(g, 30000, xrand.New(1))
		want := 1 - math.Cos(2*math.Pi/float64(n))
		if math.Abs(res.Lambda2-want) > 0.05*want+1e-4 {
			t.Errorf("C_%d: λ₂ = %v, want %v", n, res.Lambda2, want)
		}
	}
}

func TestLambda2Clique(t *testing.T) {
	// λ₂(K_n) = n/(n−1).
	g := graph.NewClique(12)
	res := Analyze(g, 4000, xrand.New(2))
	want := 12.0 / 11
	if math.Abs(res.Lambda2-want) > 0.02 {
		t.Errorf("λ₂ = %v, want %v", res.Lambda2, want)
	}
}

func TestCheegerBracketsSweep(t *testing.T) {
	// The sweep conductance must sit within the Cheeger bounds.
	r := xrand.New(3)
	gnp, err := graph.Gnp(60, 0.2, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []graph.Graph{graph.Cycle(24), graph.Hypercube(5), gnp} {
		res := Analyze(g, 0, r)
		// Allow tiny numerical slack on the lower side.
		if res.SweepConductance < res.CheegerLower-1e-3 {
			t.Errorf("%s: sweep ϕ %v below Cheeger lower %v", g.Name(), res.SweepConductance, res.CheegerLower)
		}
		if res.SweepConductance > res.CheegerUpper+1e-3 {
			t.Errorf("%s: sweep ϕ %v above Cheeger upper %v", g.Name(), res.SweepConductance, res.CheegerUpper)
		}
	}
}

func TestSweepFindsCycleCut(t *testing.T) {
	// On C_n the optimal conductance cut is an arc: ϕ = 2/n; the sweep
	// should find it (or near it).
	const n = 32
	g := graph.Cycle(n)
	res := Analyze(g, 30000, xrand.New(5))
	want := 2.0 / n
	if res.SweepConductance > 1.5*want {
		t.Errorf("sweep ϕ = %v, optimal %v", res.SweepConductance, want)
	}
	// Expansion of the arc cut: 2/(n/2) = 4/n.
	if res.SweepExpansion > 1.5*bounds.ExpansionCycle(n) {
		t.Errorf("sweep β = %v, optimal %v", res.SweepExpansion, bounds.ExpansionCycle(n))
	}
}

func TestSweepExpansionUpperBoundsKnown(t *testing.T) {
	// The sweep expansion is an upper bound on β(G); for families with a
	// closed form it must not go below it (up to numerical slack).
	r := xrand.New(7)
	for _, g := range []graph.Graph{graph.Cycle(20), graph.Hypercube(4), graph.NewClique(10)} {
		beta, ok := bounds.KnownExpansion(g)
		if !ok {
			t.Fatalf("%s should have known expansion", g.Name())
		}
		got := Analyze(g, 0, r).SweepExpansion
		if got < beta-1e-6 {
			t.Errorf("%s: sweep expansion %v below true β %v", g.Name(), got, beta)
		}
		if got > 3*beta {
			t.Errorf("%s: sweep expansion %v far above true β %v", g.Name(), got, beta)
		}
	}
}

func TestBarbellLowConductance(t *testing.T) {
	// Two cliques joined by a path: the bridge cut has conductance
	// ≈ 1/k(k−1); the sweep must find something comparably small.
	g := graph.Barbell(8, 2)
	res := Analyze(g, 20000, xrand.New(9))
	if res.SweepConductance > 0.05 {
		t.Errorf("barbell sweep ϕ = %v, expected < 0.05", res.SweepConductance)
	}
}

func TestFiedlerVectorOrthogonality(t *testing.T) {
	g := graph.Cycle(16)
	res := Analyze(g, 10000, xrand.New(11))
	// Fiedler vector must be orthogonal to d^{1/2} and unit norm.
	var d, n2 float64
	for v := 0; v < g.N(); v++ {
		s := math.Sqrt(float64(g.Degree(v)))
		d += res.Fiedler[v] * s
		n2 += res.Fiedler[v] * res.Fiedler[v]
	}
	if math.Abs(d) > 1e-6 {
		t.Errorf("Fiedler not deflated: dot = %v", d)
	}
	if math.Abs(n2-1) > 1e-6 {
		t.Errorf("Fiedler norm² = %v", n2)
	}
}
