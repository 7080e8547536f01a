package popgraph

import (
	"popgraph/internal/epidemic"
	"popgraph/internal/spectral"
	"popgraph/internal/walk"
)

// EstimateBroadcastTime estimates the worst-case expected broadcast time
// B(G) = max_v E[T(v)] of the one-way epidemic (Section 3) by Monte
// Carlo, probing extreme-degree and random sources.
func EstimateBroadcastTime(g Graph, r *Rand) float64 {
	return epidemic.EstimateB(g, r, epidemic.Options{})
}

// BroadcastFrom runs one epidemic from src and returns its completion
// step T(src).
//
//popcheck:ignore deadexport a documented library entry point: one sample of T(v), the Section 3 quantity that B(G) maximizes
func BroadcastFrom(g Graph, src int, r *Rand) int64 {
	return epidemic.BroadcastFrom(g, src, r)
}

// PropagationTimes runs one epidemic from src and returns, per distance
// k, the first step at which a node at distance exactly k from src was
// influenced (the distance-k propagation times of Section 3.2).
func PropagationTimes(g Graph, src int, r *Rand) []int64 {
	first, _ := epidemic.PropagationFrom(g, src, r)
	return first
}

// EstimateHittingTime estimates the worst-case expected hitting time
// H(G) of a classic random walk, the quantity in the six-state
// protocol's O(H(G)·n·log n) bound (Theorem 16). Exact (linear algebra)
// for n <= 2048 with exact=true, Monte Carlo otherwise.
func EstimateHittingTime(g Graph, r *Rand, exact bool) float64 {
	if exact {
		return walk.ClassicWorstHittingExact(g)
	}
	return walk.WorstHittingMC(g, r, 8, 8)
}

// SpectralProfile summarizes a graph's expansion estimated via the
// normalized Laplacian.
type SpectralProfile struct {
	// Lambda2 is the spectral gap of the normalized Laplacian.
	Lambda2 float64
	// ConductanceLower and ConductanceUpper are the Cheeger bounds
	// λ₂/2 <= ϕ(G) <= sqrt(2·λ₂).
	ConductanceLower, ConductanceUpper float64
	// SweepConductance and SweepExpansion are explicit-cut upper bounds
	// on ϕ(G) and β(G) from a Fiedler sweep.
	SweepConductance, SweepExpansion float64
}

// AnalyzeSpectrum estimates the graph's expansion profile; β and
// ϕ = β/Δ drive the broadcast bound of Theorem 6 and the fast protocol's
// space bound O(log n · log(Δ/β·log n)).
func AnalyzeSpectrum(g Graph, r *Rand) SpectralProfile {
	res := spectral.Analyze(g, 0, r)
	return SpectralProfile{
		Lambda2:          res.Lambda2,
		ConductanceLower: res.CheegerLower,
		ConductanceUpper: res.CheegerUpper,
		SweepConductance: res.SweepConductance,
		SweepExpansion:   res.SweepExpansion,
	}
}
