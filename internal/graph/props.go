package graph

// This file provides structural properties: BFS distances, diameter,
// degree statistics, connectivity, and cut/boundary quantities used by the
// expansion estimates and the renitent-cover machinery.

import (
	"math"
	"slices"
)

// BFSDistances returns the hop distance from src to every node (-1 for
// unreachable nodes, which cannot occur on the connected graphs produced
// by this package's constructors).
func BFSDistances(g Graph, src int) []int32 {
	dist, queue := newBFS(g.N())
	dist[src] = 0
	queue[0] = int32(src)
	bfs(g, dist, queue, 1, math.MaxInt32)
	return dist
}

// newBFS returns a distance array of -1s and an empty queue for n nodes.
func newBFS(n int) (dist, queue []int32) {
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	return dist, make([]int32, n)
}

// bfs extends the distances in dist by a breadth-first search from the
// tail nodes already queued, expanding no node at distance radius or
// more. A *Dense walks its CSR arrays; other graphs go through Degree
// and NeighborAt.
func bfs(g Graph, dist, queue []int32, tail int, radius int32) {
	if d, ok := g.(*Dense); ok {
		bfsCSR(d.offsets, d.adj, dist, queue, tail, radius)
		return
	}
	for head := 0; head < tail; head++ {
		v := int(queue[head])
		if dist[v] >= radius {
			continue
		}
		for i, deg := 0, g.Degree(v); i < deg; i++ {
			if w := g.NeighborAt(v, i); dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue[tail] = int32(w)
				tail++
			}
		}
	}
}

// bfsCSR is bfs on CSR arrays.
//
//popcheck:kernel
func bfsCSR(offsets, adj, dist, queue []int32, tail int, radius int32) {
	for head := 0; head < tail; head++ {
		v := queue[head]
		dv := dist[v]
		if dv >= radius {
			continue
		}
		for _, w := range adj[offsets[v]:offsets[v+1]] {
			if dist[w] < 0 {
				dist[w] = dv + 1
				queue[tail] = w
				tail++
			}
		}
	}
}

// Connected reports whether g is connected.
func Connected(g Graph) bool {
	return g.N() > 0 && !slices.Contains(BFSDistances(g, 0), -1)
}

// Eccentricity returns max_v dist(src, v).
func Eccentricity(g Graph, src int) int {
	var ecc int32
	for _, d := range BFSDistances(g, src) {
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}

// Diameter returns the diameter of g. If the graph knows its diameter
// analytically (DiameterKnower) that value is returned. Otherwise, for
// graphs with up to exactCap nodes an exact all-sources BFS is run; above
// that a lower bound from repeated double sweeps is returned (exact on
// trees and usually exact in practice).
func Diameter(g Graph) int {
	if k, ok := g.(DiameterKnower); ok {
		if d := k.KnownDiameter(); d >= 0 {
			return d
		}
	}
	const exactCap = 2048
	if g.N() <= exactCap {
		return diameterExact(g)
	}
	return diameterDoubleSweep(g)
}

func diameterExact(g Graph) int {
	best := 0
	for v := 0; v < g.N(); v++ {
		if e := Eccentricity(g, v); e > best {
			best = e
		}
	}
	return best
}

// diameterDoubleSweep runs a few BFS double sweeps: BFS from an arbitrary
// node, then from the farthest node found, keeping the maximum
// eccentricity seen. This is a lower bound on the true diameter.
func diameterDoubleSweep(g Graph) int {
	src, best := 0, 0
	for sweep := 0; sweep < 4; sweep++ {
		dist := BFSDistances(g, src)
		far, fd := src, int32(0)
		for v, d := range dist {
			if d > fd {
				far, fd = v, d
			}
		}
		if int(fd) > best {
			best = int(fd)
		}
		src = far
	}
	return best
}

// MaxDegree returns Δ(g).
func MaxDegree(g Graph) int {
	best := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > best {
			best = d
		}
	}
	return best
}

// MinDegree returns δ(g).
func MinDegree(g Graph) int {
	best := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if d := g.Degree(v); d < best {
			best = d
		}
	}
	return best
}

// IsRegular reports whether every node has the same degree.
func IsRegular(g Graph) bool {
	d0 := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) != d0 {
			return false
		}
	}
	return true
}

// Ball returns the radius-r ball B_r(U) around the node set U as a mask.
func Ball(g Graph, nodes []int, radius int) []bool {
	dist, queue := newBFS(g.N())
	tail := 0
	for _, v := range nodes {
		if dist[v] < 0 {
			dist[v] = 0
			queue[tail] = int32(v)
			tail++
		}
	}
	bfs(g, dist, queue, tail, int32(min(max(radius, 0), math.MaxInt32)))
	in := make([]bool, len(dist))
	for v, d := range dist {
		in[v] = d >= 0
	}
	return in
}
