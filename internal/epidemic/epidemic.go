// Package epidemic implements the information-propagation dynamics of
// Section 3 ("one-way epidemics"): every node starts with a unique
// message and interacting nodes exchange everything they know. It
// measures
//
//   - the broadcast time T(v) from a source (steps until all nodes are
//     influenced by v) and the worst-case expected broadcast time
//     B(G) = max_v E[T(v)], the quantity parameterizing the paper's upper
//     bounds (Theorems 21 and 24);
//   - the distance-k propagation times T_k(v) (first time a node at
//     distance exactly k from v is influenced), the quantity behind the
//     lower bounds (Lemma 14, Section 6).
//
// A single interaction spreads influence in both directions (the pair
// "inform each other"), so the initiator/responder orientation is
// irrelevant here.
package epidemic

import (
	"popgraph/internal/graph"
	"popgraph/internal/stats"
	"popgraph/internal/xrand"
)

// BroadcastFrom runs one epidemic from src and returns T(v): the number of
// scheduler steps until every node is influenced.
func BroadcastFrom(g graph.Graph, src int, r *xrand.Rand) int64 {
	n := g.N()
	informed := make([]bool, n)
	informed[src] = true
	count := 1
	var t int64
	for count < n {
		t++
		u, v := g.SampleEdge(r)
		if informed[u] != informed[v] {
			informed[u] = true
			informed[v] = true
			count++
		}
	}
	return t
}

// PropagationFrom runs one epidemic from src and returns, for every
// distance k = 0..ecc(src), the first step at which some node at distance
// exactly k from src became influenced (T_k(v) in the paper's notation),
// plus the total broadcast time.
func PropagationFrom(g graph.Graph, src int, r *xrand.Rand) (firstAtDist []int64, total int64) {
	n := g.N()
	dist := graph.BFSDistances(g, src)
	ecc := int32(0)
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	firstAtDist = make([]int64, ecc+1)
	for k := range firstAtDist {
		firstAtDist[k] = -1
	}
	firstAtDist[0] = 0
	informed := make([]bool, n)
	informed[src] = true
	count := 1
	var t int64
	for count < n {
		t++
		u, v := g.SampleEdge(r)
		if informed[u] == informed[v] {
			continue
		}
		w := u
		if informed[u] {
			w = v
		}
		informed[w] = true
		count++
		if k := dist[w]; firstAtDist[k] < 0 {
			firstAtDist[k] = t
		}
	}
	return firstAtDist, t
}

// Options configures the B(G) estimator.
type Options struct {
	// Sources is the number of candidate sources to probe; B(G) is the
	// maximum over sources of the mean broadcast time. 0 means 4. The
	// probe set always contains a minimum- and a maximum-degree node
	// (extreme-degree sources dominate the worst case in the population
	// model) plus uniformly random extras.
	Sources int
	// Trials is the number of epidemics per source; 0 means 8.
	Trials int
	// Exhaustive probes every node as a source (small graphs only).
	Exhaustive bool
}

// EstimateB estimates the worst-case expected broadcast time
// B(G) = max_v E[T(v)] by Monte Carlo.
func EstimateB(g graph.Graph, r *xrand.Rand, opts Options) float64 {
	trials := opts.Trials
	if trials <= 0 {
		trials = 8
	}
	sources := pickSources(g, r, opts)
	best := 0.0
	samples := make([]float64, trials)
	for _, src := range sources {
		for i := range samples {
			samples[i] = float64(BroadcastFrom(g, src, r))
		}
		if m := stats.Mean(samples); m > best {
			best = m
		}
	}
	return best
}

func pickSources(g graph.Graph, r *xrand.Rand, opts Options) []int {
	n := g.N()
	if opts.Exhaustive {
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		return all
	}
	count := opts.Sources
	if count <= 0 {
		count = 4
	}
	if count > n {
		count = n
	}
	seen := make(map[int]bool, count)
	sources := make([]int, 0, count)
	add := func(v int) {
		if !seen[v] {
			seen[v] = true
			sources = append(sources, v)
		}
	}
	minV, maxV := 0, 0
	for v := 1; v < n; v++ {
		if g.Degree(v) < g.Degree(minV) {
			minV = v
		}
		if g.Degree(v) > g.Degree(maxV) {
			maxV = v
		}
	}
	add(minV)
	add(maxV)
	for len(sources) < count {
		add(r.Intn(n))
	}
	return sources
}
