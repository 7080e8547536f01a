package modelcheck

import (
	"strings"
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/protocols/beauquier"
	"popgraph/internal/protocols/majority"
	"popgraph/internal/protocols/star"
	"popgraph/internal/sim"
)

// tableMachine wraps a compiled transition table, the machine the fused
// kernels run, as a Machine. Step is the table's successor decode and
// Output its role (leader = 1). StablePredicate is the kernels' own
// stability test, gap == 0, computed with Counters over a configuration
// with the given state histogram. Correct accepts an output vector
// equal to want everywhere, or with exactly one leader when want is
// nil.
func tableMachine(name string, tab *core.TransitionTable, want []byte) Machine {
	return Machine{
		Name:   name,
		States: tab.K(),
		Step:   tab.Next,
		Output: func(s byte) byte {
			if tab.Role(s) == core.Leader {
				return 1
			}
			return 0
		},
		StablePredicate: func(counts []int) bool {
			var states []uint8
			for s, k := range counts {
				for i := 0; i < k; i++ {
					states = append(states, uint8(s))
				}
			}
			_, gap := tab.Counters(states)
			return gap == 0
		},
		Correct: func(outputs []byte) bool {
			if want != nil {
				return string(outputs) == string(want)
			}
			return strings.Count(string(outputs), "\x01") == 1
		},
	}
}

// tableCase is one compiled table checked from its protocol's own
// initial configuration on one graph.
type tableCase struct {
	name string
	g    graph.Graph
	p    *sim.Tabular
	want []byte // the correct stable outputs; nil means one leader
	// tab is the table to check when it is not p.Table(): fast's tick
	// table, the only one an H = 1 run uses.
	tab *core.TransitionTable
}

// table is the compiled machine the case checks.
func (c tableCase) table() *core.TransitionTable {
	if c.tab != nil {
		return c.tab
	}
	return c.p.Table()
}

// tableCases pairs each in-tree table with the graphs the independent
// machines above are checked on: six-state on TestTokenMachineExhaustive's
// graphs, star on the star graphs among both lists, majority of both
// signs on TestMajorityMachineExhaustive's graphs, and fast at H = 1,
// L = 1, αL = 2 on TestFastMachineExhaustive's.
func tableCases() []tableCase {
	var cases []tableCase
	for _, g := range []graph.Graph{graph.Path(2), graph.Path(3), graph.Cycle(3), graph.Star(4), graph.Cycle(4)} {
		cases = append(cases, tableCase{"fast/" + g.Name(), g, newFelTabular(), nil, fastTickTable()})
	}
	for _, g := range []graph.Graph{
		graph.Path(2), graph.Path(3), graph.Cycle(3), graph.Star(4),
		graph.Path(4), graph.Cycle(4), graph.NewClique(4),
	} {
		cases = append(cases, tableCase{"six-state/" + g.Name(), g, beauquier.New(), nil, nil})
	}
	for _, g := range []graph.Graph{graph.Path(2), graph.Path(3), graph.Star(4), graph.Star(5)} {
		cases = append(cases, tableCase{"star/" + g.Name(), g, star.New(), nil, nil})
	}
	for _, g := range []graph.Graph{graph.Path(3), graph.Cycle(5), graph.Star(5), graph.Path(5)} {
		n := g.N()
		for _, ones := range []int{n/2 + 1, n / 2} {
			inputs := make([]bool, n)
			for i := 0; i < ones; i++ {
				inputs[i] = true
			}
			want := make([]byte, n)
			if 2*ones > n {
				for i := range want {
					want[i] = 1
				}
			}
			name := "majority-0/" + g.Name()
			if 2*ones > n {
				name = "majority-1/" + g.Name()
			}
			cases = append(cases, tableCase{name, g, majority.New(inputs), want, nil})
		}
	}
	return cases
}

// initialStates is the protocol's own initial configuration on g.
func initialStates(p *sim.Tabular, g graph.Graph) []byte {
	p.Reset(g, nil)
	return append([]byte(nil), p.TableStates()...)
}

// TestCompiledTablesExhaustive model-checks the tables the kernels run:
// on every reachable configuration gap == 0 holds exactly when no
// schedule can change an output any more, every stable configuration is
// correct, and every reachable configuration can still stabilize.
func TestCompiledTablesExhaustive(t *testing.T) {
	for _, c := range tableCases() {
		t.Run(c.name, func(t *testing.T) {
			m := tableMachine(c.name, c.table(), c.want)
			res, err := Check(c.g, m, initialStates(c.p, c.g), nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stable == 0 {
				t.Fatal("no stable configuration reachable")
			}
		})
	}
}

// withGapWeight returns a copy of tab whose gap weight for state s is w.
// The weights and target are read back through Counters: a lone state's
// gap minus the empty configuration's.
func withGapWeight(t *testing.T, tab *core.TransitionTable, s uint8, w int) *core.TransitionTable {
	t.Helper()
	_, empty := tab.Counters(nil)
	weight := func(x uint8) int {
		if x == s {
			return w
		}
		_, gap := tab.Counters([]uint8{x})
		return gap - empty
	}
	broken, err := core.NewTransitionTable(tab.K(), tab.Next, tab.Role, weight, -empty)
	if err != nil {
		t.Fatal(err)
	}
	return broken
}

// TestCompiledTablesBrokenGapFails — the check above must be able to
// fail: with one gap weight changed, the stability functional calls an
// unstable configuration stable (or a stable one unstable), and Check
// reports it.
func TestCompiledTablesBrokenGapFails(t *testing.T) {
	const weak0, weak1 = 0, 1 // majority's state numbering
	for _, c := range []struct {
		tableCase
		state uint8
		w     int
	}{
		// White tokens no longer count: one black token plus whites
		// reads as stable.
		{tableCase{"six-state", graph.Path(3), beauquier.New(), nil, nil}, uint8(core.FollowerWhite), 0},
		// Undecided leaves count: the decided star reads as unstable.
		{tableCase{"star", graph.Star(4), star.New(), nil, nil}, 0, 1},
		// A weak loser no longer counts: one left behind reads as stable.
		{tableCase{"majority-1", graph.Path(3), majority.New([]bool{true, true, false}), []byte{1, 1, 1}, nil}, weak0, 0},
		{tableCase{"majority-0", graph.Path(3), majority.New([]bool{true, false, false}), []byte{0, 0, 0}, nil}, weak1, 0},
		// A follower at level 1 (state 2) counts: the elected
		// configuration reads as unstable.
		{tableCase{"fast", graph.Path(3), newFelTabular(), nil, fastTickTable()}, 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			tab := withGapWeight(t, c.table(), c.state, c.w)
			_, err := Check(c.g, tableMachine(c.name, tab, c.want), initialStates(c.p, c.g), nil)
			if err == nil || !strings.Contains(err.Error(), "stability predicate") {
				t.Fatalf("broken gap weight not detected: %v", err)
			}
		})
	}
}
