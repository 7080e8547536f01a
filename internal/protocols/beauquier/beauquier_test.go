package beauquier

import (
	"fmt"
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// scanCounts recomputes the token counts of p's configuration.
func scanCounts(p *sim.Tabular) core.TokenCounts {
	var c core.TokenCounts
	for _, s := range p.TableStates() {
		c.Add(core.TokenState(s), 1)
	}
	return c
}

// NewWithCandidates returns the protocol with the given nonempty candidate
// set as input, the variant used as a backup protocol (Theorem 16 input).
// Reset panics on a candidate outside the graph or listed twice.
func NewWithCandidates(candidates []int) *sim.Tabular {
	if len(candidates) == 0 {
		panic("beauquier: candidate set must be nonempty")
	}
	candidates = append([]int(nil), candidates...)
	return sim.NewTabular("six-state", 6, table, func(g graph.Graph, states []uint8) {
		for _, v := range candidates {
			if v < 0 || v >= len(states) {
				panic(fmt.Sprintf("beauquier: candidate %d out of range [0,%d)", v, len(states)))
			}
			if states[v] == uint8(core.CandidateBlack) {
				panic(fmt.Sprintf("beauquier: duplicate candidate %d", v))
			}
			states[v] = uint8(core.CandidateBlack)
		}
	})
}

// TestInvariantsDuringRun steps the protocol manually and verifies after
// every interaction the paper's invariants, #candidates = #black +
// #white and #black >= 1, and that Leaders and Stable match the token
// counts of a full scan.
func TestInvariantsDuringRun(t *testing.T) {
	g := graph.Torus2D(4, 4)
	p := New()
	r := xrand.New(5)
	p.Reset(g, r)
	for step := 0; step < 200000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		c := scanCounts(p)
		if c.Candidates != c.Black+c.White {
			t.Fatalf("step %d: invariant broken: %+v", step, c)
		}
		if c.Black < 1 {
			t.Fatalf("step %d: black tokens vanished: %+v", step, c)
		}
		if p.Leaders() != c.Candidates || p.Stable() != c.Stable() {
			t.Fatalf("step %d: Leaders %d Stable %v, scan %+v", step, p.Leaders(), p.Stable(), c)
		}
	}
	if !p.Stable() {
		t.Fatal("did not stabilize within budget")
	}
}

// TestCountersAccurateAfterFusedRun — the fused table kernels keep the
// counters in the kernel and store them back at the end of the run —
// Leaders() and Stable() must agree with a full scan afterwards, for
// capped and stabilized runs alike.
func TestCountersAccurateAfterFusedRun(t *testing.T) {
	g := graph.Torus2D(4, 4)
	for _, maxSteps := range []int64{100, 0} {
		p := New()
		res := sim.Run(g, p, xrand.New(8), sim.Options{MaxSteps: maxSteps})
		if pl, err := sim.Compile(g, sim.Options{}); err != nil || pl.ProtocolEngine(p) != "table" {
			t.Fatalf("run did not take the fused path (%v, %v)", pl.ProtocolEngine(p), err)
		}
		if c := scanCounts(p); p.Leaders() != c.Candidates || p.Stable() != c.Stable() {
			t.Fatalf("cap %d: Leaders %d Stable %v, scan %+v", maxSteps, p.Leaders(), p.Stable(), c)
		}
		if p.Leaders() != sim.CountLeaders(g, p) {
			t.Fatalf("cap %d: Leaders() %d != scan %d", maxSteps, p.Leaders(), sim.CountLeaders(g, p))
		}
		if p.Stable() != res.Stabilized {
			t.Fatalf("cap %d: Stable() %v but run reported %v", maxSteps, p.Stable(), res.Stabilized)
		}
	}
}

func TestStabilizesOnFamilies(t *testing.T) {
	graphs := []graph.Graph{
		graph.NewClique(16),
		graph.Cycle(16),
		graph.Star(16),
		graph.Path(12),
		graph.Hypercube(4),
		graph.Lollipop(6, 6),
	}
	for _, g := range graphs {
		t.Run(g.Name(), func(t *testing.T) {
			p := New()
			res := sim.Run(g, p, xrand.New(11), sim.Options{})
			if !res.Stabilized {
				t.Fatalf("no stabilization in %d steps", res.Steps)
			}
			if sim.CountLeaders(g, p) != 1 || p.Leaders() != 1 {
				t.Fatalf("leaders: scan %d counter %d", sim.CountLeaders(g, p), p.Leaders())
			}
		})
	}
}

func TestCandidateSubsetInput(t *testing.T) {
	g := graph.Cycle(12)
	p := NewWithCandidates([]int{3, 7, 9})
	res := sim.Run(g, p, xrand.New(2), sim.Options{})
	if !res.Stabilized {
		t.Fatal("did not stabilize")
	}
	// Only an original candidate can win: followers are never promoted.
	if res.Leader != 3 && res.Leader != 7 && res.Leader != 9 {
		t.Fatalf("leader %d was not a candidate", res.Leader)
	}
}

func TestSingleCandidateStabilizesImmediately(t *testing.T) {
	g := graph.Path(6)
	p := NewWithCandidates([]int{2})
	p.Reset(g, xrand.New(1))
	if !p.Stable() {
		t.Fatal("single candidate with one black token must already be stable")
	}
	if p.Output(2) != core.Leader {
		t.Fatal("candidate must output leader")
	}
}

func TestConstructorValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty", func() { NewWithCandidates(nil) })
	mustPanic("out-of-range", func() {
		p := NewWithCandidates([]int{99})
		p.Reset(graph.Path(4), xrand.New(1))
	})
	mustPanic("duplicate", func() {
		p := NewWithCandidates([]int{1, 1})
		p.Reset(graph.Path(4), xrand.New(1))
	})
}

func TestCandidatesNeverReappear(t *testing.T) {
	g := graph.NewClique(10)
	p := New()
	r := xrand.New(9)
	p.Reset(g, r)
	wasFollower := make([]bool, g.N())
	for step := 0; step < 50000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		for _, w := range []int{u, v} {
			cand := core.TokenState(p.TableStates()[w]).Candidate()
			if wasFollower[w] && cand {
				t.Fatalf("node %d became candidate again at step %d", w, step)
			}
			if !cand {
				wasFollower[w] = true
			}
		}
	}
}

func TestStateCountAndName(t *testing.T) {
	p := New()
	if p.StateCount(1000) != 6 {
		t.Fatal("state count must be 6")
	}
	if p.Name() != "six-state" {
		t.Fatalf("name %q", p.Name())
	}
}

func TestStabilityIsPermanent(t *testing.T) {
	// After Stable() first holds, keep stepping: output must never change.
	g := graph.Cycle(10)
	p := New()
	r := xrand.New(21)
	res := sim.Run(g, p, r, sim.Options{})
	if !res.Stabilized {
		t.Fatal("did not stabilize")
	}
	leader := res.Leader
	for step := 0; step < 20000; step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if !p.Stable() {
			t.Fatalf("stability lost at extra step %d", step)
		}
		if p.Output(leader) != core.Leader {
			t.Fatalf("leader output changed at extra step %d", step)
		}
	}
	if sim.CountLeaders(g, p) != 1 {
		t.Fatal("leader count changed after stability")
	}
}

// TestTableIsProcessWide pins that the table belongs to the protocol:
// every instance, whatever its candidate input, returns the one table
// built at init, and asking for it allocates nothing.
func TestTableIsProcessWide(t *testing.T) {
	if a, b := New().Table(), NewWithCandidates([]int{0}).Table(); a == nil || a != b {
		t.Fatalf("instances return tables %p and %p, want one shared table", a, b)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = New().Table() }); allocs != 0 {
		t.Fatalf("New().Table() allocates %v times, want 0", allocs)
	}
}
