// Command graphinfo prints the structural and dynamical properties of a
// graph that the paper's bounds are phrased in: size, degrees, diameter,
// expansion/conductance estimates, worst-case broadcast time B(G) and
// classic-walk hitting time H(G), next to the Theorem 6 / Lemma 12
// broadcast bounds.
//
// For a snapshot (-graph file:PATH.popg, written by cmd/preprocess) it
// loads the file once and first prints what the file stores — format,
// source spec, n, m and known diameter — before the usual graph
// statistics. Every load checks the checksum, the edge list and
// connectivity, so a clean run is also a complete integrity check of
// the file.
//
// Usage:
//
//	graphinfo -graph cycle:256 -seed 1
//	graphinfo -graph file:ws.popg -fast
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"popgraph"
	"popgraph/internal/bounds"
	"popgraph/internal/graph"
	"popgraph/internal/snapshot"
)

func main() {
	var (
		graphSpec = flag.String("graph", "cycle:128", "graph spec, e.g. gnp:256:0.5 or file:PATH.popg")
		seed      = flag.Uint64("seed", 1, "random seed")
		skipSlow  = flag.Bool("fast", false, "skip the slower B(G)/H(G) estimates")
	)
	flag.Parse()
	if err := run(*graphSpec, *seed, *skipSlow); err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}
}

func run(spec string, seed uint64, skipSlow bool) error {
	r := popgraph.NewRand(seed)
	g, err := loadGraph(spec, r)
	if err != nil {
		return err
	}
	n, m := g.N(), g.M()
	maxDeg, minDeg := popgraph.MaxDegree(g), popgraph.MinDegree(g)
	diam := popgraph.Diameter(g)
	fmt.Printf("graph      %s\n", g.Name())
	fmt.Printf("nodes      %d\n", n)
	fmt.Printf("edges      %d\n", m)
	fmt.Printf("degree     min %d, max %d, regular %v\n", minDeg, maxDeg, graph.IsRegular(g))
	fmt.Printf("diameter   %d\n", diam)

	beta, known := bounds.KnownExpansion(g)
	if known {
		fmt.Printf("expansion  β = %.4g (closed form)\n", beta)
	} else {
		sp := popgraph.AnalyzeSpectrum(g, r)
		beta = sp.SweepExpansion
		fmt.Printf("expansion  β <= %.4g (Fiedler sweep), λ₂ = %.4g\n", sp.SweepExpansion, sp.Lambda2)
		fmt.Printf("conductance %.4g <= ϕ <= %.4g (Cheeger), sweep cut ϕ = %.4g\n",
			sp.ConductanceLower, sp.ConductanceUpper, sp.SweepConductance)
	}
	fmt.Printf("broadcast bounds: %.4g <= B(G) <= %.4g   (Lemma 12 / Theorem 6)\n",
		bounds.BroadcastLower(n, m, maxDeg), bounds.BroadcastUpper(n, m, diam, beta))

	if skipSlow {
		return nil
	}
	b := popgraph.EstimateBroadcastTime(g, r)
	fmt.Printf("B(G)       %.4g (measured)\n", b)
	exact := n <= 192
	h := popgraph.EstimateHittingTime(g, r, exact)
	method := "Monte Carlo"
	if exact {
		method = "exact"
	}
	fmt.Printf("H(G)       %.4g (%s)\n", h, method)
	fmt.Printf("paper stabilization shapes: identifier B+nlogn = %.4g, fast B*logn = %.4g, six-state H*nlogn = %.4g\n",
		bounds.IdentifierUpper(n, b), bounds.FastUpper(n, b), bounds.SixStateUpper(n, h))
	return nil
}

// loadGraph builds the graph of spec. A file: spec is loaded once
// through snapshot.Load, and what the file stores is printed first.
func loadGraph(spec string, r *popgraph.Rand) (popgraph.Graph, error) {
	path, isSnap := strings.CutPrefix(spec, "file:")
	if !isSnap {
		return popgraph.ParseGraph(spec, r)
	}
	s, err := snapshot.Load(path)
	if err != nil {
		return nil, err
	}
	g := s.Graph
	fmt.Printf("snapshot   %s (%s; checksum, edge list and connectivity verified)\n", path, snapshot.Magic)
	fmt.Printf("source     %s\n", s.Source)
	diam := "unknown"
	if d := g.KnownDiameter(); d >= 0 {
		diam = strconv.Itoa(d)
	}
	fmt.Printf("stored     n=%d, m=%d, diameter %s\n\n", g.N(), g.M(), diam)
	return g, nil
}
