// Package walk implements the two random-walk models of Section 4.1 and
// the hitting/meeting-time machinery behind Theorem 16:
//
//   - the classic random walk: at each of its steps the walk moves to a
//     uniformly random neighbour; H(G) denotes its worst-case expected
//     hitting time;
//   - the population-model random walk: the walk sits at a node and moves
//     whenever the scheduler samples an edge incident to it, so its clock
//     runs in scheduler steps; H_P(G) <= 27·n·H(G) (Lemma 17, after Sudo
//     et al.), and two walks "meet" when they occupy the two endpoints of
//     the sampled edge, with M(u,v) <= 2·H_P(G) (Lemma 18).
//
// Exact hitting times of both walks come from one harmonic system,
// h(z) = 0, h(u) = c(u) + avg_{w ~ u} h(w), solved by Gaussian
// elimination; the walks differ only in the right-hand side, c(u) = 1
// for the classic walk and m/deg(u) for the population-model walk.
// Monte Carlo estimators cover the rest.
package walk

import (
	"fmt"
	"math"

	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// ClassicHittingExact returns the exact expected hitting times h(u) of the
// classic random walk from every node u to the target, by dense Gaussian
// elimination on the harmonic system (O(n³) time, O(n²) memory; capped at
// n = 2048):
//
//	h(u) = 1 + (1/deg(u))·Σ_{w ~ u} h(w),  h(target) = 0.
func ClassicHittingExact(g graph.Graph, target int) []float64 {
	return hittingExact(g, target, func(float64) float64 { return 1 })
}

// PopulationHittingExact returns the exact expected hitting times (in
// scheduler steps) of the population-model walk to the target. From node
// x the walk moves along each incident edge with probability 1/m and
// stays put otherwise, so the harmonic system is the classic one with
// right-hand side m/deg(x) instead of 1:
//
//	h(x) = m/deg(x) + (1/deg(x))·Σ_{w ~ x} h(w),  h(target) = 0.
//
// On Δ-regular graphs this gives exactly h = (m/Δ)·h_classic.
func PopulationHittingExact(g graph.Graph, target int) []float64 {
	m := float64(g.M())
	return hittingExact(g, target, func(inv float64) float64 { return m * inv })
}

// hittingExact solves the harmonic system both walks share,
//
//	h(u) − (1/deg u)·Σ_{w ~ u, w != target} h(w) = rhs(1/deg u),
//
// over the variables h(u), u != target, in node order, and returns h
// with h(target) = 0.
func hittingExact(g graph.Graph, target int, rhs func(inv float64) float64) []float64 {
	n := g.N()
	if n > 2048 {
		panic(fmt.Sprintf("walk: exact hitting needs n <= 2048, got %d", n))
	}
	if target < 0 || target >= n {
		panic(fmt.Sprintf("walk: target %d out of range", target))
	}
	col := func(v int) int { // v's variable; v != target
		if v > target {
			return v - 1
		}
		return v
	}
	a := make([][]float64, n-1)
	b := make([]float64, n-1)
	for v := 0; v < n; v++ {
		if v == target {
			continue
		}
		i := col(v)
		row := make([]float64, n-1)
		row[i] = 1
		deg := g.Degree(v)
		inv := 1 / float64(deg)
		for j := 0; j < deg; j++ {
			if w := g.NeighborAt(v, j); w != target {
				row[col(w)] -= inv
			}
		}
		a[i], b[i] = row, rhs(inv)
	}
	x := solveGauss(a, b)
	h := make([]float64, n)
	copy(h, x[:target])
	copy(h[target+1:], x[target:])
	return h
}

// solveGauss solves a·x = b in place with partial pivoting.
func solveGauss(a [][]float64, b []float64) []float64 {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		p := a[col][col]
		if p == 0 {
			panic("walk: singular hitting-time system (graph disconnected?)")
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / p
			if f == 0 {
				continue
			}
			row, prow := a[r], a[col]
			for c := col; c < n; c++ {
				row[c] -= f * prow[c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		row := a[r]
		for c := r + 1; c < n; c++ {
			sum -= row[c] * x[c]
		}
		x[r] = sum / row[r]
	}
	return x
}

// ClassicWorstHittingExact returns H(G) = max_{u,v} H(u, v) exactly by
// solving the harmonic system for every target (O(n⁴); keep n <= ~256).
func ClassicWorstHittingExact(g graph.Graph) float64 {
	return worstHittingExact(g, ClassicHittingExact)
}

// PopulationWorstHittingExact returns H_P(G) = max_{u,v} H_P(u, v)
// exactly (O(n⁴); keep n <= ~256). Lemma 17 guarantees
// H_P(G) <= 27·n·H(G).
func PopulationWorstHittingExact(g graph.Graph) float64 {
	return worstHittingExact(g, PopulationHittingExact)
}

// worstHittingExact maximizes hitting(g, target) over every target.
func worstHittingExact(g graph.Graph, hitting func(graph.Graph, int) []float64) float64 {
	best := 0.0
	for target := 0; target < g.N(); target++ {
		for _, h := range hitting(g, target) {
			if h > best {
				best = h
			}
		}
	}
	return best
}

// ClassicHittingMC estimates H(u, v) for the classic walk by simulation.
func ClassicHittingMC(g graph.Graph, u, v int, r *xrand.Rand, trials int) float64 {
	if trials <= 0 {
		trials = 16
	}
	var total int64
	for i := 0; i < trials; i++ {
		x := u
		var steps int64
		for x != v {
			x = g.NeighborAt(x, r.Intn(g.Degree(x)))
			steps++
		}
		total += steps
	}
	return float64(total) / float64(trials)
}

// MeetingExact returns the exact expected meeting times M(u, v) of two
// population-model walks for every unordered pair, solved on the product
// chain over unordered node pairs {x, y}: absorption when the scheduler
// samples the edge {x, y}, otherwise each walk moves along sampled
// incident edges. O(n⁶) time via dense elimination on n(n−1)/2 unknowns;
// keep n <= ~48. The result is indexed [u][v] with M[u][u] = 0.
//
// Lemma 18 asserts M(u, v) <= 2·H_P(G) for all u != v; tests verify this
// exactly on small graphs.
func MeetingExact(g graph.Graph) [][]float64 {
	n := g.N()
	if n > 48 {
		panic(fmt.Sprintf("walk: exact meeting times need n <= 48, got %d", n))
	}
	// Unordered pairs {x, y}, x < y.
	idx := make([][]int, n)
	vars := 0
	for x := 0; x < n; x++ {
		idx[x] = make([]int, n)
		for y := x + 1; y < n; y++ {
			idx[x][y] = vars
			vars++
		}
	}
	pairIdx := func(x, y int) int {
		if x > y {
			x, y = y, x
		}
		return idx[x][y]
	}
	adjacent := make(map[int]bool, 2*g.M())
	g.ForEachEdge(func(u, w int) { adjacent[pairIdx(u, w)] = true })

	m := float64(g.M())
	a := make([][]float64, vars)
	b := make([]float64, vars)
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			i := idx[x][y]
			row := make([]float64, vars)
			b[i] = 1
			// From state {x, y}, each of the m edges is sampled w.p. 1/m:
			// the edge {x, y} absorbs; an edge {x, w} moves x to w (note
			// w = y is impossible here unless it IS the absorbing edge);
			// similarly for y; other edges leave the state unchanged.
			stay := float64(g.M())
			pij := pairIdx(x, y)
			if adjacent[pij] {
				stay-- // absorbing transition
			}
			addMove := func(from, other, to int) {
				if to == other {
					return // that sample is the absorbing edge, handled above
				}
				stay--
				row[pairIdx(to, other)] -= 1 / m
			}
			for j := 0; j < g.Degree(x); j++ {
				addMove(x, y, g.NeighborAt(x, j))
			}
			for j := 0; j < g.Degree(y); j++ {
				addMove(y, x, g.NeighborAt(y, j))
			}
			row[i] += 1 - stay/m
			a[i] = row
		}
	}
	x := solveGauss(a, b)
	out := make([][]float64, n)
	for u := 0; u < n; u++ {
		out[u] = make([]float64, n)
		for v := 0; v < n; v++ {
			if u != v {
				out[u][v] = x[pairIdx(u, v)]
			}
		}
	}
	return out
}

// WorstHittingMC estimates H(G) by maximizing the Monte-Carlo classic
// hitting time over `pairs` sampled (u, v) pairs, always including the
// extreme-degree pair (min-degree source is the classic worst case).
func WorstHittingMC(g graph.Graph, r *xrand.Rand, pairs, trials int) float64 {
	if pairs <= 0 {
		pairs = 8
	}
	n := g.N()
	minV, maxV := 0, 0
	for v := 1; v < n; v++ {
		if g.Degree(v) < g.Degree(minV) {
			minV = v
		}
		if g.Degree(v) > g.Degree(maxV) {
			maxV = v
		}
	}
	best := 0.0
	probe := func(u, v int) {
		if u == v {
			return
		}
		if h := ClassicHittingMC(g, u, v, r, trials); h > best {
			best = h
		}
	}
	probe(maxV, minV)
	probe(minV, maxV)
	for i := 0; i < pairs; i++ {
		probe(r.Intn(n), r.Intn(n))
	}
	return best
}
