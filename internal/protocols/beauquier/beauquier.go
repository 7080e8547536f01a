// Package beauquier implements the constant-state (6-state) stable leader
// election protocol of Beauquier, Blanchard and Burman (OPODIS 2013), the
// paper's space-efficiency baseline (Theorem 16).
//
// Each leader candidate starts holding a black token. Tokens perform
// population-model random walks (they swap carriers on every interaction).
// When two black tokens meet, one is recolored white; when a candidate
// receives a white token, it becomes a follower and destroys the token.
// The invariant #candidates = #black + #white with #black >= 1 guarantees
// exactly one candidate survives; the configuration is stable once one
// black and no white tokens remain.
//
// Expected stabilization time is O(H(G)·n log n), where H(G) is the
// worst-case hitting time of a classic random walk on G (Theorem 16,
// via Sudo et al. 2021).
//
// The protocol is a sim.Tabular: its six states are the core.TokenState
// bytes, and its table is compiled once per process straight from
// core.TokenTransition, so execution plans fuse it into the table
// kernels.
package beauquier

import (
	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
)

// New returns the protocol with every node starting as a leader candidate,
// the standard leader-election input.
func New() *sim.Tabular { return sim.NewTabular("six-state", 6, table, allCandidates) }

// allCandidates is New's initial configuration: every node a candidate
// holding a black token.
func allCandidates(_ graph.Graph, states []uint8) {
	for v := range states {
		states[v] = uint8(core.CandidateBlack)
	}
}

// table is the compiled six-state machine, built once per process from
// core.TokenTransition. Non-candidates start in state 0, FollowerNone.
// The stability functional is #black + #white − 1, which is zero exactly
// on stable configurations by the invariant #black >= 1.
var table = func() *core.TransitionTable {
	tab, err := core.NewTransitionTable(6,
		func(a, b uint8) (uint8, uint8) {
			na, nb := core.TokenTransition(core.TokenState(a), core.TokenState(b))
			return uint8(na), uint8(nb)
		},
		func(s uint8) core.Role { return core.TokenState(s).Role() },
		func(s uint8) int {
			if tok := core.TokenState(s).Token(); tok == core.TokenBlack || tok == core.TokenWhite {
				return 1
			}
			return 0
		},
		1)
	if err != nil {
		panic("beauquier: " + err.Error())
	}
	return tab
}()
