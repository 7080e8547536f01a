package majority

import (
	"testing"

	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// inputsWithOnes builds an n-node input with the given number of ones.
func inputsWithOnes(n, ones int) []bool {
	in := make([]bool, n)
	for i := 0; i < ones; i++ {
		in[i] = true
	}
	return in
}

func TestComputesMajorityOnFamilies(t *testing.T) {
	graphs := []graph.Graph{
		graph.NewClique(16),
		graph.Cycle(15),
		graph.Star(12),
		graph.Torus2D(3, 4),
		graph.Lollipop(5, 4),
	}
	for _, g := range graphs {
		t.Run(g.Name(), func(t *testing.T) {
			n := g.N()
			for _, ones := range []int{1, n/2 - 1, n/2 + 1, n - 1} {
				if ones <= 0 || ones >= n || 2*ones == n {
					continue
				}
				p := New(inputsWithOnes(n, ones))
				r := xrand.New(uint64(100*n + ones))
				res := sim.Run(g, p, r, sim.Options{MaxSteps: 1 << 32})
				if !res.Stabilized {
					t.Fatalf("ones=%d: no stabilization", ones)
				}
				steps := res.Steps
				want := 2*ones > n
				for v := 0; v < n; v++ {
					if p.Opinion(v) != want {
						t.Fatalf("ones=%d: node %d opinion %v, majority %v (after %d steps)",
							ones, v, p.Opinion(v), want, steps)
					}
				}
			}
		})
	}
}

// TestStrongDifferenceInvariant — #strong1 − #strong0 is conserved by
// every interaction — the exactness invariant.
func TestStrongDifferenceInvariant(t *testing.T) {
	g := graph.Torus2D(4, 4)
	p := New(inputsWithOnes(16, 9))
	r := xrand.New(7)
	p.Reset(g, r)
	want := p.StrongDifference()
	if want != 2 {
		t.Fatalf("initial difference %d, want 2", want)
	}
	for i := 0; i < 100000 && !p.Stable(); i++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if p.StrongDifference() != want {
			t.Fatalf("step %d: difference %d, want %d", i, p.StrongDifference(), want)
		}
	}
	if !p.Stable() {
		t.Fatal("did not stabilize")
	}
}

func TestStabilityIsPermanent(t *testing.T) {
	g := graph.NewClique(10)
	p := New(inputsWithOnes(10, 7))
	r := xrand.New(11)
	if !sim.Run(g, p, r, sim.Options{MaxSteps: 1 << 30}).Stabilized {
		t.Fatal("did not stabilize")
	}
	for i := 0; i < 30000; i++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		if !p.Stable() {
			t.Fatalf("stability lost at extra step %d", i)
		}
	}
	// Adversarial hammering of every pair keeps outputs fixed too.
	g.ForEachEdge(func(u, w int) {
		p.Step(u, w)
		p.Step(w, u)
		if !p.Stable() {
			t.Fatalf("stability lost under adversarial pair (%d,%d)", u, w)
		}
	})
}

func TestRejectsTies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on tie input")
		}
	}()
	p := New(inputsWithOnes(8, 4))
	p.Reset(graph.NewClique(8), xrand.New(1))
}

func TestRejectsWrongInputLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := New(inputsWithOnes(5, 2))
	p.Reset(graph.NewClique(8), xrand.New(1))
}

func TestTransitionTotalAndConservative(t *testing.T) {
	all := []state{weak0, weak1, strong0, strong1}
	sgn := func(s state) int {
		switch s {
		case strong0:
			return -1
		case strong1:
			return 1
		default:
			return 0
		}
	}
	for _, a := range all {
		for _, b := range all {
			na, nb := transition(a, b)
			if sgn(na)+sgn(nb) != sgn(a)+sgn(b) {
				t.Errorf("(%v,%v) -> (%v,%v): strong difference not conserved", a, b, na, nb)
			}
		}
	}
}

func TestStateCountAndName(t *testing.T) {
	p := New(inputsWithOnes(4, 3))
	if p.StateCount(100) != 4 || p.Name() == "" {
		t.Fatal("metadata")
	}
}

// TestCountersMatchScans cross-checks the O(1) counters — Leaders()
// (= Ones), StrongDifference and the Stable predicate — against full
// state scans after every interaction of a scripted run, the same
// discipline beauquier's counters get.
func TestCountersMatchScans(t *testing.T) {
	g := graph.Torus2D(4, 4)
	p := New(inputsWithOnes(16, 10))
	p.Reset(g, xrand.New(3))
	r := xrand.New(4)
	for i := 0; i < 20000; i++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
		var scan [4]int
		for w := 0; w < 16; w++ {
			scan[p.states[w]]++
		}
		if ones := scan[weak1] + scan[strong1]; ones != p.Ones() || ones != p.Leaders() {
			t.Fatalf("step %d: Ones()/Leaders() %d/%d != scan %d", i, p.Ones(), p.Leaders(), ones)
		}
		if scanLeaders := sim.CountLeaders(g, p); scanLeaders != p.Leaders() {
			t.Fatalf("step %d: Leaders() %d != output scan %d", i, p.Leaders(), scanLeaders)
		}
		if d := scan[strong1] - scan[strong0]; d != p.StrongDifference() {
			t.Fatalf("step %d: StrongDifference %d != scan %d", i, p.StrongDifference(), d)
		}
		zeros := scan[weak0] + scan[strong0]
		ones := scan[weak1] + scan[strong1]
		wantStable := (zeros == 0 && scan[strong1] > 0) || (ones == 0 && scan[strong0] > 0)
		if p.Stable() != wantStable {
			t.Fatalf("step %d: Stable() %v, scan says %v", i, p.Stable(), wantStable)
		}
		if p.Stable() {
			return
		}
	}
	t.Fatal("run did not stabilize within 20000 steps")
}

// TestTableMatchesStep — the per-sign generated tables agree with the
// hand-written transition on every state pair, and their stability
// functional (no losing-side nodes left) matches Stable on reachable
// configurations of either sign.
func TestTableMatchesStep(t *testing.T) {
	for _, ones := range []int{3, 1} { // majority-1 and majority-0 inputs
		p := New(inputsWithOnes(4, ones))
		tab := p.Table()
		if tab == nil || tab.K() != 4 {
			t.Fatalf("ones=%d: table %+v, want a 4-state machine", ones, tab)
		}
		for a := uint8(0); a < 4; a++ {
			for b := uint8(0); b < 4; b++ {
				wa, wb := transition(a, b)
				na, nb := tab.Next(a, b)
				if na != wa || nb != wb {
					t.Fatalf("ones=%d (%d,%d): table (%d,%d), transition (%d,%d)", ones, a, b, na, nb, wa, wb)
				}
			}
		}
		winnerStrong, loserStrong := strong1, strong0
		if ones == 1 {
			winnerStrong, loserStrong = strong0, strong1
		}
		for _, c := range []struct {
			states []uint8
			stable bool
		}{
			{[]uint8{winnerStrong, winnerStrong, winnerStrong}, true},
			{[]uint8{winnerStrong, loserStrong, winnerStrong}, false},
		} {
			if _, gap := tab.Counters(c.states); (gap == 0) != c.stable {
				t.Fatalf("ones=%d %v: gap %d, want stable=%v", ones, c.states, gap, c.stable)
			}
		}
	}
	if New(inputsWithOnes(4, 2)).Table() != nil {
		t.Fatal("tie inputs must not compile a table")
	}
}

// TestTableIsPerSign pins that the tables belong to the protocol: one
// per input-margin sign, shared by every instance of that sign, and
// picking one costs nothing beyond New's copy of the inputs.
func TestTableIsPerSign(t *testing.T) {
	onesA, onesB := New(inputsWithOnes(5, 3)).Table(), New(inputsWithOnes(9, 8)).Table()
	zeros := New(inputsWithOnes(5, 1)).Table()
	if onesA == nil || onesA != onesB {
		t.Fatalf("majority-1 instances return tables %p and %p, want one shared table", onesA, onesB)
	}
	if zeros == nil || zeros == onesA {
		t.Fatalf("majority-0 table %p, want a second table distinct from %p", zeros, onesA)
	}
	if New(inputsWithOnes(6, 3)).Table() != nil {
		t.Fatal("tie inputs must not have a table")
	}
	inputs := inputsWithOnes(5, 3)
	base := testing.AllocsPerRun(100, func() { _ = New(inputs) })
	withTable := testing.AllocsPerRun(100, func() { _ = New(inputs).Table() })
	if withTable != base {
		t.Fatalf("New(inputs).Table() allocates %v times, New(inputs) alone %v: Table must add none", withTable, base)
	}
}

// StrongDifference returns #strong1 − #strong0, the conserved quantity
// equal to the input difference.
func (p *Protocol) StrongDifference() int { return p.counts[strong1] - p.counts[strong0] }
