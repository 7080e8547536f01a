package fastelect

import (
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// testParams are small parameters suitable for tiny test graphs.
var testParams = Params{H: 3, L: 6, AlphaL: 24}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{H: 0, L: 5, AlphaL: 10},
		{H: 2, L: 0, AlphaL: 10},
		{H: 2, L: 5, AlphaL: 5},
		{H: 2, L: 5, AlphaL: 4},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v should be invalid", p)
		}
	}
	if err := testParams.Validate(); err != nil {
		t.Fatalf("test params invalid: %v", err)
	}
}

func TestParamHelpers(t *testing.T) {
	g := graph.Cycle(64)
	b := 64.0 * 64 * 3 // rough Θ(n·m) broadcast time on a cycle
	for _, params := range []Params{PaperParams(g, b, 1), PaperParams(g, b, 2), TunedParams(g, b)} {
		if err := params.Validate(); err != nil {
			t.Errorf("helper produced invalid params: %+v: %v", params, err)
		}
	}
	// Paper parameters: h = 8 + ceil(log2(B·Δ/m)) = 8 + ceil(log2(384)) = 17.
	if got := PaperParams(g, b, 1).H; got != 17 {
		t.Errorf("paper h = %d, want 17", got)
	}
	// Tuned keeps the same form with a smaller constant.
	if got := TunedParams(g, b).H; got != 11 {
		t.Errorf("tuned h = %d, want 11", got)
	}
}

func TestStabilizesOnFamilies(t *testing.T) {
	graphs := []graph.Graph{
		graph.NewClique(16),
		graph.Cycle(12),
		graph.Torus2D(3, 4),
		graph.Star(10),
		graph.Path(8),
	}
	for _, g := range graphs {
		t.Run(g.Name(), func(t *testing.T) {
			p := New(testParams)
			res := sim.Run(g, p, xrand.New(37), sim.Options{})
			if !res.Stabilized {
				t.Fatalf("no stabilization in %d steps", res.Steps)
			}
			if sim.CountLeaders(g, p) != 1 || p.Leaders() != 1 {
				t.Fatalf("leaders: scan %d counter %d", sim.CountLeaders(g, p), p.Leaders())
			}
		})
	}
}

// TestAlwaysAtLeastOneLeader verifies the liveness invariant Section 5.2
// argues: in every configuration some node outputs leader.
func TestAlwaysAtLeastOneLeader(t *testing.T) {
	g := graph.Torus2D(4, 4)
	p := New(Params{H: 2, L: 4, AlphaL: 8}) // small cap to exercise backup
	r := xrand.New(41)
	p.Reset(g, r)
	for step := 0; step < 400000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if p.Leaders() < 1 {
			t.Fatalf("step %d: zero leaders", step)
		}
		if step%499 == 0 {
			if scan := sim.CountLeaders(g, p); scan != p.Leaders() {
				t.Fatalf("step %d: leaders counter %d != scan %d", step, p.Leaders(), scan)
			}
		}
	}
	if !p.Stable() {
		t.Fatal("did not stabilize")
	}
}

// TestBackupPathStabilizes forces the level cap low so several nodes enter
// the backup, and checks the run still elects exactly one leader, on
// the compiled tables and on the hand-written protocol.
func TestBackupPathStabilizes(t *testing.T) {
	g := graph.NewClique(12)
	params := Params{H: 1, L: 2, AlphaL: 3}
	for _, p := range []backupProtocol{New(params).(backupProtocol), NewStep(params)} {
		res := sim.Run(g, p, xrand.New(43), sim.Options{})
		if !res.Stabilized {
			t.Fatal("did not stabilize")
		}
		if p.InBackup() == 0 {
			t.Fatal("expected backup entry with a tiny level cap")
		}
		if sim.CountLeaders(g, p) != 1 {
			t.Fatalf("%d leaders", sim.CountLeaders(g, p))
		}
		// Once any node is in backup and the run stabilized, all nodes must
		// have been recruited (the cap level broadcasts).
		if p.InBackup() != g.N() {
			t.Fatalf("only %d of %d nodes entered backup at stabilization", p.InBackup(), g.N())
		}
	}
}

// backupProtocol is a protocol that reports its backup population, as
// both implementations New picks between do.
type backupProtocol interface {
	sim.Protocol
	InBackup() int
}

// TestBackupInvariant — within the backup, candidates = black + white and
// black >= 1 once any candidate entered.
func TestBackupInvariant(t *testing.T) {
	g := graph.NewClique(10)
	p := NewStep(Params{H: 1, L: 2, AlphaL: 3})
	r := xrand.New(47)
	p.Reset(g, r)
	for step := 0; step < 300000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		c := p.Counts()
		if c.Candidates != c.Black+c.White {
			t.Fatalf("step %d: backup invariant broken: %+v", step, c)
		}
		if p.InBackup() > 0 && c.Black < 1 {
			t.Fatalf("step %d: backup populated but no black token: %+v", step, c)
		}
	}
	if !p.Stable() {
		t.Fatal("did not stabilize")
	}
}

func TestStabilityIsPermanent(t *testing.T) {
	g := graph.Cycle(10)
	p := New(testParams)
	r := xrand.New(53)
	res := sim.Run(g, p, r, sim.Options{})
	if !res.Stabilized {
		t.Fatal("did not stabilize")
	}
	leader := res.Leader
	for i := 0; i < 50000; i++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if !p.Stable() {
			t.Fatalf("stability lost at extra step %d", i)
		}
		if p.Output(leader) != core.Leader {
			t.Fatalf("leader output changed at extra step %d", i)
		}
	}
}

// TestLevelsMonotoneAndCapped — levels never decrease and never exceed the cap.
func TestLevelsMonotoneAndCapped(t *testing.T) {
	g := graph.NewClique(8)
	p := NewStep(Params{H: 2, L: 3, AlphaL: 6})
	r := xrand.New(59)
	p.Reset(g, r)
	prev := make([]int, g.N())
	for step := 0; step < 100000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		for _, w := range []int{u, v} {
			l := p.Level(w)
			if l < prev[w] {
				t.Fatalf("step %d: level of %d decreased %d -> %d", step, w, prev[w], l)
			}
			if l > 6 {
				t.Fatalf("step %d: level of %d exceeds cap: %d", step, w, l)
			}
			prev[w] = l
		}
	}
}

// TestFollowersNeverPromoted — once a node loses fast-phase leader status
// it never outputs leader again unless it is a backup candidate (which
// can only happen if it entered backup as a leader).
func TestFollowersNeverPromoted(t *testing.T) {
	g := graph.Torus2D(3, 3)
	p := New(testParams)
	r := xrand.New(61)
	p.Reset(g, r)
	demoted := make([]bool, g.N())
	for step := 0; step < 400000 && !p.Stable(); step++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		for w := 0; w < g.N(); w++ {
			isLeader := p.Output(w) == core.Leader
			if demoted[w] && isLeader {
				t.Fatalf("step %d: demoted node %d outputs leader again", step, w)
			}
			if !isLeader {
				demoted[w] = true
			}
		}
	}
	if !p.Stable() {
		t.Fatal("did not stabilize")
	}
}

func TestStateCount(t *testing.T) {
	params := Params{H: 3, L: 5, AlphaL: 20}
	// (h+1)·(2·αL + 6) = 4·46 = 184, whichever implementation New picks.
	for _, p := range []sim.Protocol{New(params), NewStep(params)} {
		if got := p.StateCount(100); got != 184 || p.Name() != "fast-space-efficient" {
			t.Fatalf("%T: StateCount = %v, Name %q; want 184, fast-space-efficient", p, got, p.Name())
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Params{H: 0, L: 1, AlphaL: 2})
}

// Level returns node v's level.
func (p *Protocol) Level(v int) int { return int(p.level[v]) }

// Counts exposes the backup token counters.
func (p *Protocol) Counts() core.TokenCounts { return p.counts }
