package sim

import (
	"testing"

	"popgraph/internal/graph"
)

// TestWeightedSharesDenseEdges — on a Dense graph the weighted
// scheduler adopts the graph's packed edge list instead of copying it;
// on any other graph it builds the same list from ForEachEdge.
func TestWeightedSharesDenseEdges(t *testing.T) {
	g := graph.Torus2D(4, 5)
	s, err := NewWeighted(g, "w", ramp(g.M()))
	if err != nil {
		t.Fatal(err)
	}
	if &s.pairs[0] != &g.PackedEdges()[0] || len(s.pairs) != g.M() {
		t.Fatal("weighted scheduler on a Dense graph copied its edge list")
	}

	c := graph.NewClique(7)
	s, err = NewWeighted(c, "w", ramp(c.M()))
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	c.ForEachEdge(func(u, w int) { want = append(want, int64(u)<<32|int64(w)) })
	if len(s.pairs) != len(want) {
		t.Fatalf("clique: %d pairs, want %d", len(s.pairs), len(want))
	}
	for i := range want {
		if s.pairs[i] != want[i] {
			t.Fatalf("clique: pair %d is %#x, ForEachEdge gives %#x", i, s.pairs[i], want[i])
		}
	}
}

func ramp(m int) []float64 {
	rates := make([]float64, m)
	for i := range rates {
		rates[i] = float64(i + 1)
	}
	return rates
}
