// Package spectral estimates expansion quantities via the normalized
// Laplacian: the spectral gap λ₂ gives two-sided Cheeger bounds on the
// conductance ϕ(G) (λ₂/2 <= ϕ <= sqrt(2·λ₂)), and a sweep cut over the
// Fiedler vector produces an explicit cut whose conductance and expansion
// upper-bound ϕ(G) and β(G).
//
// The paper uses β (edge expansion) in the broadcast-time bound of
// Theorem 6 and ϕ = β/Δ (conductance) in the regular-graph corollaries;
// the fast protocol's parameter h depends on log(Δ/β·log n), which this
// package supplies for graphs without a closed-form expansion.
package spectral

import (
	"math"

	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// Result holds the spectral analysis of a graph.
type Result struct {
	// Lambda2 is the second-smallest eigenvalue of the normalized
	// Laplacian (the spectral gap).
	Lambda2 float64
	// CheegerLower and CheegerUpper bound the conductance:
	// λ₂/2 <= ϕ(G) <= sqrt(2·λ₂).
	CheegerLower, CheegerUpper float64
	// SweepConductance is the conductance of the best sweep cut (an upper
	// bound on ϕ(G), usually tight in practice).
	SweepConductance float64
	// SweepExpansion is the edge expansion |∂S|/min(|S|,|V\S|) of the best
	// sweep cut by that measure (an upper bound on β(G)).
	SweepExpansion float64
	// Fiedler is the second eigenvector of the normalized Laplacian.
	Fiedler []float64
}

// Analyze runs deflated power iteration for the Fiedler pair and sweeps
// the vector for cuts. iters <= 0 selects a default that suffices for the
// sizes used in the experiments.
func Analyze(g graph.Graph, iters int, r *xrand.Rand) Result {
	n := g.N()
	if iters <= 0 {
		iters = 400 * int(math.Sqrt(float64(n))+1)
	}
	// W = D^{-1/2}·A·D^{-1/2} has top eigenpair (1, d^{1/2}); we iterate
	// the positive-semidefinite half-lazy operator (I + W)/2 (spectrum in
	// [0, 1]) and deflate d^{1/2} to converge to the second eigenvector.
	sqrtDeg := make([]float64, n)
	var norm float64
	for v := 0; v < n; v++ {
		sqrtDeg[v] = math.Sqrt(float64(g.Degree(v)))
		norm += float64(g.Degree(v))
	}
	norm = math.Sqrt(norm)
	top := make([]float64, n)
	for v := 0; v < n; v++ {
		top[v] = sqrtDeg[v] / norm
	}

	x := make([]float64, n)
	for v := range x {
		x[v] = r.Float64() - 0.5
	}
	y := make([]float64, n)
	var mu float64
	for it := 0; it < iters; it++ {
		deflate(x, top)
		normalize(x)
		// y = (x + W·x)/2.
		for v := 0; v < n; v++ {
			var sum float64
			deg := g.Degree(v)
			for i := 0; i < deg; i++ {
				w := g.NeighborAt(v, i)
				sum += x[w] / sqrtDeg[w]
			}
			y[v] = (x[v] + sum/sqrtDeg[v]) / 2
		}
		mu = dot(x, y)
		x, y = y, x
	}
	deflate(x, top)
	normalize(x)
	// (I+W)/2 eigenvalue mu corresponds to W eigenvalue 2mu-1 and
	// Laplacian eigenvalue lambda2 = 1-(2mu-1) = 2(1-mu).
	lambda2 := 2 * (1 - mu)
	if lambda2 < 0 {
		lambda2 = 0
	}
	res := Result{
		Lambda2:      lambda2,
		CheegerLower: lambda2 / 2,
		CheegerUpper: math.Sqrt(2 * lambda2),
		Fiedler:      append([]float64(nil), x...),
	}
	res.SweepConductance, res.SweepExpansion = sweep(g, x, sqrtDeg)
	return res
}

// sweep orders nodes by the normalized Fiedler value x(v)/sqrt(deg v) and
// evaluates every prefix cut, returning the best conductance and the best
// expansion found.
func sweep(g graph.Graph, x, sqrtDeg []float64) (bestCond, bestExp float64) {
	n := g.N()
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	val := make([]float64, n)
	for v := 0; v < n; v++ {
		val[v] = x[v] / sqrtDeg[v]
	}
	sortByValue(order, val)
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	// Incremental boundary/volume as the prefix grows node by node.
	inS := make([]bool, n)
	boundary, volS := 0, 0
	totalVol := 2 * g.M()
	bestCond, bestExp = math.Inf(1), math.Inf(1)
	for i := 0; i < n-1; i++ {
		v := order[i]
		inS[v] = true
		deg := g.Degree(v)
		volS += deg
		for j := 0; j < deg; j++ {
			if inS[g.NeighborAt(v, j)] {
				boundary -= 1
			} else {
				boundary++
			}
		}
		sizeS := i + 1
		minVol := volS
		if totalVol-volS < minVol {
			minVol = totalVol - volS
		}
		minSize := sizeS
		if n-sizeS < minSize {
			minSize = n - sizeS
		}
		if minVol > 0 {
			if c := float64(boundary) / float64(minVol); c < bestCond {
				bestCond = c
			}
		}
		if c := float64(boundary) / float64(minSize); c < bestExp {
			bestExp = c
		}
	}
	return bestCond, bestExp
}

func deflate(x, top []float64) {
	d := dot(x, top)
	for i := range x {
		x[i] -= d * top[i]
	}
}

func normalize(x []float64) {
	n := math.Sqrt(dot(x, x))
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// sortByValue sorts order (a permutation of nodes) by ascending val.
func sortByValue(order []int, val []float64) {
	// Heapsort: no allocation, no recursion, fine at these sizes.
	n := len(order)
	less := func(i, j int) bool { return val[order[i]] < val[order[j]] }
	swap := func(i, j int) { order[i], order[j] = order[j], order[i] }
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n, less, swap)
	}
	for i := n - 1; i > 0; i-- {
		swap(0, i)
		siftDown(0, i, less, swap)
	}
}

func siftDown(root, n int, less func(i, j int) bool, swap func(i, j int)) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && less(child, child+1) {
			child++
		}
		if !less(root, child) {
			return
		}
		swap(root, child)
		root = child
	}
}
