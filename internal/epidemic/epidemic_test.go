package epidemic

import (
	"math"
	"testing"

	"popgraph/internal/bounds"
	"popgraph/internal/graph"
	"popgraph/internal/stats"
	"popgraph/internal/xrand"
)

func TestBroadcastCompletesAndIsPositive(t *testing.T) {
	r := xrand.New(1)
	for _, g := range []graph.Graph{
		graph.NewClique(32), graph.Cycle(32), graph.Star(32), graph.Torus2D(4, 8),
	} {
		steps := BroadcastFrom(g, 0, r)
		if steps < int64(g.N())/2 {
			t.Errorf("%s: broadcast in %d steps, below trivial n/2 bound", g.Name(), steps)
		}
	}
}

// TestBroadcastWithinTheorem6Bounds checks measured mean broadcast times
// sit between the Lemma 12 lower bound and the Theorem 6 upper bound.
func TestBroadcastWithinTheorem6Bounds(t *testing.T) {
	r := xrand.New(3)
	for _, g := range []graph.Graph{
		graph.NewClique(64), graph.Cycle(64), graph.Star(64), graph.Hypercube(6),
	} {
		const trials = 10
		xs := make([]float64, trials)
		for i := range xs {
			xs[i] = float64(BroadcastFrom(g, 0, r))
		}
		mean := stats.Mean(xs)
		lower := bounds.BroadcastLower(g.N(), g.M(), graph.MaxDegree(g))
		beta, ok := bounds.KnownExpansion(g)
		if !ok {
			beta = 0
		}
		upper := bounds.BroadcastUpper(g.N(), g.M(), graph.Diameter(g), beta)
		if mean < lower {
			t.Errorf("%s: mean %v below Lemma 12 bound %v", g.Name(), mean, lower)
		}
		// Lemma 8/10 hold for n > n₀; allow 25% finite-size slack at n = 64.
		if mean > 1.25*upper {
			t.Errorf("%s: mean %v above Theorem 6 bound %v", g.Name(), mean, upper)
		}
	}
}

// TestCliqueBroadcastShape — on K_n the epidemic is the push-pull coupon
// process; E[T] = Σ_i 2m/(i(n−i))·... ≈ n·ln(n)·(1+o(1)) since each step
// informs with probability i(n−i)/m. Closed form: E[T] = m·Σ 1/(i(n−i)).
func TestCliqueBroadcastShape(t *testing.T) {
	const n = 128
	g := graph.NewClique(n)
	r := xrand.New(5)
	const trials = 20
	xs := make([]float64, trials)
	for i := range xs {
		xs[i] = float64(BroadcastFrom(g, 0, r))
	}
	mean := stats.Mean(xs)
	want := 0.0
	m := float64(g.M())
	for i := 1; i < n; i++ {
		want += m / (float64(i) * float64(n-i))
	}
	if math.Abs(mean-want) > 0.1*want {
		t.Errorf("clique broadcast mean %v, closed form %v", mean, want)
	}
}

func TestPropagationFromMonotone(t *testing.T) {
	g := graph.Cycle(40)
	r := xrand.New(7)
	first, total := PropagationFrom(g, 0, r)
	if len(first) != 21 { // ecc of a node on C_40 is 20
		t.Fatalf("got %d distances, want 21", len(first))
	}
	if first[0] != 0 {
		t.Fatalf("T_0 = %d", first[0])
	}
	for k := 1; k < len(first); k++ {
		if first[k] <= 0 {
			t.Fatalf("T_%d unset", k)
		}
		if first[k] < first[k-1] {
			t.Fatalf("T_%d = %d < T_%d = %d: propagation cannot jump", k, first[k], k-1, first[k-1])
		}
	}
	if total < first[len(first)-1] {
		t.Fatalf("total %d before farthest distance %d", total, first[len(first)-1])
	}
}

// TestLemma14PropagationLowerBound — Pr[T_k(G) < km/(Δe³)] <= 1/n for
// k >= ln n. On a cycle with k = n/2 the threshold is comfortably below
// the measured times.
func TestLemma14PropagationLowerBound(t *testing.T) {
	const n = 64
	g := graph.Cycle(n)
	r := xrand.New(9)
	k := n / 2
	threshold := bounds.PropagationLower(k, g.M(), graph.MaxDegree(g))
	below := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		first, _ := PropagationFrom(g, 0, r)
		if float64(first[k]) < threshold {
			below++
		}
	}
	// The paper guarantees failure probability <= 1/n; allow a couple.
	if below > 3 {
		t.Errorf("T_k below Lemma 14 threshold in %d/%d runs", below, trials)
	}
}

func TestEstimateBMaxOverSources(t *testing.T) {
	// On a star, broadcasting from a leaf is slower than from the center;
	// the estimator must probe the min-degree (leaf) source.
	g := graph.Star(64)
	r := xrand.New(11)
	est := EstimateB(g, r, Options{Sources: 2, Trials: 12})
	const trials = 12
	xs := make([]float64, trials)
	for i := range xs {
		xs[i] = float64(BroadcastFrom(g, 0, r)) // center source
	}
	center := stats.Mean(xs)
	if est <= center {
		t.Errorf("B estimate %v should exceed center-source mean %v", est, center)
	}
}

func TestEstimateBExhaustive(t *testing.T) {
	g := graph.Path(10)
	r := xrand.New(13)
	est := EstimateB(g, r, Options{Exhaustive: true, Trials: 4})
	if est <= 0 {
		t.Fatal("estimate must be positive")
	}
}

func BenchmarkBroadcastCycle(b *testing.B) {
	g := graph.Cycle(256)
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BroadcastFrom(g, 0, r)
	}
}
