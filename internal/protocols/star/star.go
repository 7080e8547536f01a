// Package star implements the trivial constant-state protocol that elects
// a leader in a single interaction on star graphs (Table 1, row "Stars").
//
// Every interaction on a star involves the center, so the very first
// interaction decides the center and creates exactly one leader; every
// later interaction only turns undecided leaves (which already output
// follower) into decided followers, leaving all outputs unchanged. The
// configuration after step one is therefore already stable — stabilization
// time is exactly 1 regardless of n, illustrating why no general Ω(n log n)
// lower bound can hold on all graphs (Section 1.3).
//
// The protocol is only correct on stars; Reset rejects other graphs. Its
// three states make it a sim.Tabular whose table is compiled once per
// process from rule, so plans fuse it into the table kernels.
package star

import (
	"fmt"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
)

// state is one of the three node states.
type state = uint8

const (
	undecided state = iota // initial; outputs follower
	leader
	follower
)

// New returns the star protocol.
func New() *sim.Tabular { return sim.NewTabular("star-trivial", 3, table, checkStar) }

// checkStar is the protocol's init: every node starts undecided (the
// zeroed states), and a graph that is not a star (one center adjacent
// to all other nodes, which are leaves) panics.
func checkStar(g graph.Graph, _ []uint8) {
	n := g.N()
	if n < 3 {
		return
	}
	centers := 0
	for v := 0; v < n; v++ {
		switch g.Degree(v) {
		case n - 1:
			centers++
		case 1:
		default:
			panic(fmt.Sprintf("star: graph %q is not a star (degree(%d)=%d)",
				g.Name(), v, g.Degree(v)))
		}
	}
	if centers != 1 {
		panic(fmt.Sprintf("star: graph %q is not a star (%d centers)", g.Name(), centers))
	}
}

// rule is the transition (initiator a, responder b):
//
//	U + U -> L + F   (the only U+U edge on a star involves the center)
//	L + U -> L + F, U + L -> F + L
//	F + U -> F + F, U + F -> F + F
//
// all other pairs are no-ops.
func rule(a, b state) (state, state) {
	switch {
	case a == undecided && b == undecided:
		return leader, follower
	case a == undecided:
		return follower, b
	case b == undecided:
		return a, follower
	}
	return a, b
}

// role maps a state to its output: only leader outputs Leader
// (undecided nodes output follower).
func role(s state) core.Role {
	if s == leader {
		return core.Leader
	}
	return core.Follower
}

// table is the compiled star machine, built once per process. The
// stability functional is the leader count itself with target 1: on a
// star one leader exists only after the center was decided, after
// which no interaction changes any output, and leaders never exceeds
// one.
var table = func() *core.TransitionTable {
	tab, err := core.NewTransitionTable(3, rule, role,
		func(s state) int {
			if s == leader {
				return 1
			}
			return 0
		},
		1)
	if err != nil {
		panic("star: " + err.Error())
	}
	return tab
}()
