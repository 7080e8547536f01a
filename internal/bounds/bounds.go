// Package bounds collects the paper's closed-form bounds so experiments
// can print paper-vs-measured rows. Each function cites the statement it
// implements. Constants follow the paper exactly, so upper bounds are
// loose by design and lower bounds conservative.
package bounds

import (
	"math"

	"popgraph/internal/graph"
	"popgraph/internal/stats"
)

// BroadcastUpperDiameter returns the Lemma 8 bound
// B(G) <= m·max{6·ln n, D} + 2.
func BroadcastUpperDiameter(n, m, diam int) float64 {
	return float64(m)*math.Max(6*math.Log(float64(n)), float64(diam)) + 2
}

// BroadcastUpperExpansion returns the Lemma 10 bound
// B(G) <= 2·λ₀·m·log n / β + 2 with λ₀ = 4 (any λ₀ with λ−e−ln λ ≥ λ/2
// for λ ≥ λ₀ works; λ₀ = 4 satisfies it).
func BroadcastUpperExpansion(n, m int, beta float64) float64 {
	const lambda0 = 4
	return 2*lambda0*float64(m)*math.Log2(float64(n))/beta + 2
}

// BroadcastUpper returns Theorem 6: O(m·min{log n/β, log n + D}), as the
// minimum of the two explicit bounds above (beta <= 0 disables the
// expansion bound).
func BroadcastUpper(n, m, diam int, beta float64) float64 {
	d := BroadcastUpperDiameter(n, m, diam)
	if beta <= 0 {
		return d
	}
	return math.Min(d, BroadcastUpperExpansion(n, m, beta))
}

// BroadcastLower returns the Lemma 12 bound B(G) >= (m/Δ)·ln(n−1)
// (derived via harmonic numbers; we use H_{n-1} exactly).
func BroadcastLower(n, m, maxDeg int) float64 {
	return float64(m) / float64(maxDeg) * stats.Harmonic(n-1)
}

// PropagationLower returns the Lemma 14 threshold t = k·m/(Δ·e³):
// Pr[T_k(G) < t] <= 1/n whenever k >= ln n.
func PropagationLower(k, m, maxDeg int) float64 {
	return float64(k) * float64(m) / (float64(maxDeg) * math.Exp(3))
}

// SixStateUpper returns the Theorem 16 shape H(G)·n·log n (the O(·)
// argument, without the constant): the six-state protocol's expected
// stabilization time normalized by this should be flat in n.
func SixStateUpper(n int, hitting float64) float64 {
	return hitting * float64(n) * math.Log2(float64(n))
}

// IdentifierUpper returns the Theorem 21 shape B(G) + n·log n.
func IdentifierUpper(n int, broadcast float64) float64 {
	return broadcast + float64(n)*math.Log2(float64(n))
}

// FastUpper returns the Theorem 24 shape B(G)·log n.
func FastUpper(n int, broadcast float64) float64 {
	return broadcast * math.Log2(float64(n))
}

// ExpansionCycle returns β(C_n) = 2/⌊n/2⌋ (split the cycle in half:
// 2 boundary edges over ⌊n/2⌋ nodes).
func ExpansionCycle(n int) float64 { return 2 / float64(n/2) }

// ExpansionClique returns β(K_n) = ⌈n/2⌉: a set of size s <= n/2 has
// boundary s·(n−s), minimized per element at s = ⌊n/2⌋, giving n−⌊n/2⌋.
func ExpansionClique(n int) float64 { return float64(n - n/2) }

// ExpansionStar returns β(K_{1,n-1}) = 1: any set of s <= n/2 leaves
// (excluding the center) has boundary exactly s.
func ExpansionStar() float64 { return 1 }

// ExpansionTorusUpper returns an upper bound on β of the k×k torus via the
// half-wrap cut: cutting along a dimension gives 2k boundary edges over
// k²/2 nodes, i.e. 4/k; the true β is Θ(1/k).
func ExpansionTorusUpper(k int) float64 { return 4 / float64(k) }

// ExpansionHypercube returns β(Q_d) = 1 (dimension cut is optimal by
// Harper's edge-isoperimetric inequality).
func ExpansionHypercube() float64 { return 1 }

// HittingClique returns H(K_n) = n−1 (classic random walk).
func HittingClique(n int) float64 { return float64(n - 1) }

// HittingCycle returns H(C_n) = ⌊n/2⌋·⌈n/2⌉, the worst-case expected
// hitting time on the n-cycle: H(u,v) = k(n−k) at distance k, maximized
// at k = ⌊n/2⌋.
func HittingCycle(n int) float64 { return float64(n/2) * float64((n+1)/2) }

// HittingPathEnds returns H(P_n) endpoint-to-endpoint = (n−1)².
//
//popcheck:ignore deadexport walk tests check the exact solvers against it
func HittingPathEnds(n int) float64 { return float64(n-1) * float64(n-1) }

// HittingPopulationUpper returns the Lemma 17 bound H_P(G) <= 27·n·H(G).
//
//popcheck:ignore deadexport walk tests check the exact solvers against it
func HittingPopulationUpper(n int, hitting float64) float64 {
	return 27 * float64(n) * hitting
}

// KnownExpansion returns the exact edge expansion for the families with a
// closed form, keyed on the concrete generator outputs, and ok=false
// otherwise.
func KnownExpansion(g graph.Graph) (beta float64, ok bool) {
	n := g.N()
	switch {
	case isClique(g):
		return ExpansionClique(n), true
	case isCycle(g):
		return ExpansionCycle(n), true
	case isStar(g):
		return ExpansionStar(), true
	case isHypercube(g):
		return ExpansionHypercube(), true
	default:
		return 0, false
	}
}

func isClique(g graph.Graph) bool {
	return g.M() == g.N()*(g.N()-1)/2
}

func isCycle(g graph.Graph) bool {
	if g.M() != g.N() || g.N() < 3 {
		return false
	}
	return graph.IsRegular(g) && g.Degree(0) == 2
}

func isStar(g graph.Graph) bool {
	if g.M() != g.N()-1 || g.N() < 3 {
		return false
	}
	return graph.MaxDegree(g) == g.N()-1
}

func isHypercube(g graph.Graph) bool {
	n := g.N()
	if n < 2 || n&(n-1) != 0 {
		return false
	}
	d := 0
	for 1<<d < n {
		d++
	}
	return graph.IsRegular(g) && g.Degree(0) == d && g.M() == n*d/2
}
