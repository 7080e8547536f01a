// Package majority implements exact two-valued majority on arbitrary
// connected interaction graphs with four states, the "other fundamental
// problem" the paper's conclusions point to as a direction for the same
// token-based techniques (cf. Bénézit, Thiran and Vetterli's interval
// consensus and the population-protocol majority literature).
//
// Each node starts with an opinion in {0, 1} held strongly. Strong
// opinions act like the paper's random-walking tokens:
//
//   - two opposite strong opinions annihilate into weak opinions
//     (preserving the difference #strong1 − #strong0, the invariant that
//     makes the protocol exact);
//   - a strong opinion meeting a weak one moves across the edge and
//     converts the weak node's sign, performing exactly the
//     population-model random walk of Section 4;
//   - weak opinions never interact with each other.
//
// Once the minority's strong opinions are annihilated (a meeting-time
// argument, Lemma 18-style), the surviving strong opinions walk the graph
// converting every weak node (a hitting-time argument, Lemma 19-style),
// so stabilization takes O(H(G)·n·log n) expected steps — the same bound
// as the six-state leader election protocol. Ties (equal counts) never
// stabilize and are rejected as input.
//
// The protocol is a sim.Tabular, so it runs through the compiled
// execution plans like every leader-election protocol: Output maps
// opinion 1 to core.Leader and opinion 0 to core.Follower (so Leaders()
// counts the nodes currently outputting 1 — a Result's Leader field is
// usually −1, majority being a many-winners problem). Its table depends
// on the input's majority sign (the stability functional counts the
// losing side's nodes), so there are two tables, each compiled once per
// process from transition, and New picks one by the sign of the input
// margin.
package majority

import (
	"fmt"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
)

// state is one of the four node states.
type state = uint8

const (
	weak0 state = iota
	weak1
	strong0
	strong1
)

// New returns the protocol with the given initial opinions, every node
// starting as a strong copy of its own. Reset panics unless there is one
// input per node, and on a tie (equal counts never stabilize), which
// also has no table.
func New(inputs []bool) *sim.Tabular {
	inputs = append([]bool(nil), inputs...)
	margin := 0
	for _, b := range inputs {
		if b {
			margin++
		} else {
			margin--
		}
	}
	var tab *core.TransitionTable
	switch {
	case margin > 0:
		tab = onesWin
	case margin < 0:
		tab = zerosWin
	}
	return sim.NewTabular("four-state-majority", 4, tab, func(_ graph.Graph, states []uint8) {
		if len(inputs) != len(states) {
			panic(fmt.Sprintf("majority: %d inputs for %d nodes", len(inputs), len(states)))
		}
		if margin == 0 {
			panic("majority: tie inputs never stabilize; supply a strict majority")
		}
		for v, b := range inputs {
			if b {
				states[v] = strong1
			} else {
				states[v] = strong0
			}
		}
	})
}

// transition implements the four-state rules.
func transition(a, b state) (state, state) {
	switch {
	// Annihilation: opposite strong opinions cancel into weak ones.
	case a == strong0 && b == strong1:
		return weak0, weak1
	case a == strong1 && b == strong0:
		return weak1, weak0
	// Walk + convert: a strong opinion crosses the edge, converting the
	// weak node it leaves behind to its own sign.
	case a == strong0 && (b == weak0 || b == weak1):
		return weak0, strong0
	case a == strong1 && (b == weak0 || b == weak1):
		return weak1, strong1
	case b == strong0 && (a == weak0 || a == weak1):
		return strong0, weak0
	case b == strong1 && (a == weak0 || a == weak1):
		return strong1, weak1
	// Strong agreement or weak pairs: no change.
	default:
		return a, b
	}
}

// onesWin and zerosWin are the compiled machines for a positive and a
// negative input margin, each built once per process.
var (
	onesWin  = buildTable(func(s uint8) bool { return s == weak0 || s == strong0 })
	zerosWin = buildTable(func(s uint8) bool { return s == weak1 || s == strong1 })
)

// buildTable compiles the four-state machine from transition. Opinion 1
// outputs Leader. The stability functional counts the losing side's
// nodes (weak and strong) with target 0: the conserved strong
// difference keeps the winning side's strong count positive, so "no
// loser left" holds exactly when only one sign remains, after which no
// rule can change an output.
func buildTable(losing func(s uint8) bool) *core.TransitionTable {
	tab, err := core.NewTransitionTable(4, transition,
		func(s uint8) core.Role {
			if s == weak1 || s == strong1 {
				return core.Leader
			}
			return core.Follower
		},
		func(s uint8) int {
			if losing(s) {
				return 1
			}
			return 0
		},
		0)
	if err != nil {
		panic("majority: " + err.Error())
	}
	return tab
}
