package idelect

import (
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

func TestStabilizesOnFamilies(t *testing.T) {
	graphs := []graph.Graph{
		graph.NewClique(16),
		graph.Cycle(12),
		graph.Star(10),
		graph.Torus2D(3, 4),
		graph.Path(8),
	}
	for _, g := range graphs {
		t.Run(g.Name(), func(t *testing.T) {
			p := New()
			res := sim.Run(g, p, xrand.New(31), sim.Options{})
			if !res.Stabilized {
				t.Fatalf("no stabilization in %d steps", res.Steps)
			}
			if sim.CountLeaders(g, p) != 1 || p.Leaders() != 1 {
				t.Fatalf("leaders: scan %d counter %d", sim.CountLeaders(g, p), p.Leaders())
			}
			// All nodes must share the maximum finished identifier.
			max := p.MaxID()
			if max < 1<<p.K() {
				t.Fatalf("max id %d not finished (k=%d)", max, p.K())
			}
			for v := 0; v < g.N(); v++ {
				if p.ID(v) != max {
					t.Fatalf("node %d id %d != max %d after stabilization", v, p.ID(v), max)
				}
			}
		})
	}
}

func TestIdentifiersMonotone(t *testing.T) {
	g := graph.NewClique(10)
	p := New()
	r := xrand.New(3)
	p.Reset(g, r)
	prev := make([]uint64, g.N())
	for v := range prev {
		prev[v] = p.ID(v)
	}
	for step := 0; step < 100000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		for _, w := range []int{u, v} {
			if p.ID(w) < prev[w] {
				t.Fatalf("step %d: id of %d decreased %d -> %d", step, w, prev[w], p.ID(w))
			}
			prev[w] = p.ID(w)
		}
	}
}

func TestFinishedIdentifierRange(t *testing.T) {
	g := graph.Cycle(8)
	p := New()
	r := xrand.New(13)
	p.Reset(g, r)
	limit := uint64(1) << p.K()
	for step := 0; step < 500000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
	}
	if !p.Stable() {
		t.Fatal("did not stabilize")
	}
	for v := 0; v < g.N(); v++ {
		id := p.ID(v)
		if id < limit || id >= 2*limit {
			t.Fatalf("node %d id %d outside [2^k, 2^{k+1})", v, id)
		}
	}
}

func TestCountersMatchScan(t *testing.T) {
	g := graph.Torus2D(3, 3)
	p := New()
	r := xrand.New(17)
	p.Reset(g, r)
	for step := 0; step < 300000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if step%211 != 0 {
			continue
		}
		// Recompute countAtMax and leader count by scanning.
		atMax, leaders := 0, 0
		for w := 0; w < g.N(); w++ {
			if p.MaxID() != 0 && p.ID(w) == p.MaxID() {
				atMax++
			}
			if p.Output(w) == core.Leader {
				leaders++
			}
		}
		if p.MaxID() != 0 && atMax != p.countAtMax {
			t.Fatalf("step %d: countAtMax %d != scan %d", step, p.countAtMax, atMax)
		}
		if leaders != p.Leaders() {
			t.Fatalf("step %d: leaders %d != scan %d", step, p.Leaders(), leaders)
		}
	}
	if !p.Stable() {
		t.Fatal("did not stabilize")
	}
}

func TestStabilityIsPermanent(t *testing.T) {
	g := graph.NewClique(8)
	p := New()
	r := xrand.New(23)
	res := sim.Run(g, p, r, sim.Options{})
	if !res.Stabilized {
		t.Fatal("did not stabilize")
	}
	leader := res.Leader
	for i := 0; i < 30000; i++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if !p.Stable() {
			t.Fatalf("stability lost at extra step %d", i)
		}
	}
	if sim.FindLeader(g, p) != leader {
		t.Fatal("leader changed after stabilization")
	}
}

func TestRegularVariantUsesFewerBits(t *testing.T) {
	gen, reg := New(), NewRegular()
	gen.Reset(graph.Cycle(64), xrand.New(1))
	reg.Reset(graph.Cycle(64), xrand.New(1))
	if gen.K() != 24 || reg.K() != 18 {
		t.Fatalf("k: general %d (want 24), regular %d (want 18)", gen.K(), reg.K())
	}
	if gen.StateCount(64) <= reg.StateCount(64) {
		t.Fatal("general variant must use more states")
	}
	if gen.Name() == reg.Name() {
		t.Fatal("names must differ")
	}
}

// TestLemma22IdentifierDistribution — a finished identifier is uniform on
// {2^k, ..., 2^{k+1}−1}; check the low bit (the node's last role) is fair.
func TestLemma22IdentifierDistribution(t *testing.T) {
	g := graph.NewClique(6)
	odd, total := 0, 0
	for trial := 0; trial < 400; trial++ {
		p := New()
		r := xrand.New(uint64(1000 + trial))
		p.Reset(g, r)
		// Run until node 0 finishes generating.
		for step := 0; step < 100000 && !p.Finished(0); step++ {
			u, v := g.SampleEdge(r)
			p.Step(u, v)
		}
		if !p.Finished(0) {
			t.Fatal("node 0 never finished generating")
		}
		total++
		if p.ID(0)&1 == 1 {
			odd++
		}
	}
	frac := float64(odd) / float64(total)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("last identifier bit heavily biased: %v", frac)
	}
}

func TestStateCountScaling(t *testing.T) {
	p := New()
	// k = ceil(4·log2 n); states ≈ 12·2^k ≈ 12·n⁴.
	s256 := p.StateCount(256)
	if s256 < 1e9 || s256 > 1e11 {
		t.Fatalf("StateCount(256) = %g implausible for O(n^4)", s256)
	}
}

// ID returns node v's current identifier.
func (p *Protocol) ID(v int) uint64 { return p.ids[v] }

// MaxID returns the largest finished identifier, 0 if none yet.
func (p *Protocol) MaxID() uint64 { return p.maxID }
