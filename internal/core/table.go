// Compiled transition tables. A constant-state population protocol is a
// finite function δ: S×S → S×S plus a per-state output role and a
// stability predicate over global state counts — for the paper's
// constant-state protocols (the six-state Beauquier et al. baseline of
// Theorem 16, the star protocol, four-state majority) the whole machine
// fits in a few dozen bytes. TransitionTable is that machine compiled
// into one flat k×k array of packed cells, sized so the entire table
// stays L1-resident: the simulator's fused kernels (internal/sim)
// execute an interaction as two byte loads, one table lookup, two byte
// stores and two counter adds, with no interface dispatch.
//
// Counters. Instead of scanning outputs, a table maintains two global
// integers incrementally:
//
//   - leaders — the number of nodes whose state's Role is Leader;
//   - gap — Σ_v gapWeight(state(v)) − gapTarget, a protocol-chosen
//     linear functional that is zero exactly on the protocol's stable
//     configurations (among configurations reachable from its initial
//     ones; see NewTransitionTable).
//
// Each table cell carries the (Δleaders, Δgap) of its transition, so
// Leaders() and Stable() stay O(1) while the kernel never calls out of
// its loop. Tests cross-check both counters against full state scans.

package core

import "fmt"

// MaxTableStates bounds the state count of a TransitionTable. Constant-
// state protocols use a handful of states; the bound keeps k² cells
// (4·k² bytes) comfortably cache-resident and the packed cell encoding
// valid (state indices must fit a byte).
const MaxTableStates = 64

// TableDeltaBias is the bias added to the per-cell counter deltas when
// they are packed into a cell's upper bytes: a delta d is stored as the
// byte d+TableDeltaBias, so representable deltas span
// [−TableDeltaBias, TableDeltaBias−1]. A pairwise transition moves two
// nodes, so real protocol deltas are tiny; the builder rejects weights
// that would overflow the lane.
const TableDeltaBias = 128

// TransitionTable is a compiled finite-state protocol: the transition
// function as a flat [k*k] array of packed cells, the per-state output
// roles, and the counter weights behind the incrementally maintained
// leaders/gap integers. Tables are immutable after construction and
// safe for concurrent use by any number of runs.
//
// Cell packing (uint32), for cell index a*k+b with initiator state a and
// responder state b:
//
//	bits 0–7    next responder state
//	bits 8–15   next initiator state
//	bits 16–23  Δleaders + TableDeltaBias
//	bits 24–31  Δgap + TableDeltaBias
type TransitionTable struct {
	k         int
	cells     []uint32
	roles     []Role
	gapW      []int
	gapTarget int
}

// NewTransitionTable compiles a protocol's transition function into a
// table. step is the pure pairwise transition (initiator, responder) →
// successors; it is queried once per ordered state pair, so generating
// it from a protocol's existing Step logic keeps the hand-written
// transitions the single source of truth. role maps each state to its
// output. gapWeight and gapTarget define the stability functional: the
// caller guarantees that, on every configuration reachable from the
// protocol's initial ones, Σ_v gapWeight(state(v)) == gapTarget holds
// exactly when the protocol's Stable() predicate does. (Unreachable
// configurations may disagree; no run visits them.)
//
// Errors: k outside [1, MaxTableStates], a successor state out of
// range, an invalid role, or a weight large enough to overflow a cell's
// biased delta byte.
func NewTransitionTable(k int, step func(a, b uint8) (uint8, uint8),
	role func(s uint8) Role, gapWeight func(s uint8) int, gapTarget int) (*TransitionTable, error) {
	if k < 1 || k > MaxTableStates {
		return nil, tableErrorf("state count %d outside [1, %d]", k, MaxTableStates)
	}
	t := &TransitionTable{
		k:         k,
		cells:     make([]uint32, k*k),
		roles:     make([]Role, k),
		gapW:      make([]int, k),
		gapTarget: gapTarget,
	}
	leadW := make([]int, k)
	for s := 0; s < k; s++ {
		r := role(uint8(s))
		if r != Leader && r != Follower {
			return nil, tableErrorf("state %d has invalid role %v", s, r)
		}
		t.roles[s] = r
		if r == Leader {
			leadW[s] = 1
		}
		t.gapW[s] = gapWeight(uint8(s))
	}
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			na, nb := step(uint8(a), uint8(b))
			if int(na) >= k || int(nb) >= k {
				return nil, tableErrorf("transition (%d,%d) -> (%d,%d) leaves the %d-state space", a, b, na, nb, k)
			}
			dLead := leadW[na] + leadW[nb] - leadW[a] - leadW[b]
			dGap := t.gapW[na] + t.gapW[nb] - t.gapW[a] - t.gapW[b]
			if dLead < -TableDeltaBias || dLead >= TableDeltaBias ||
				dGap < -TableDeltaBias || dGap >= TableDeltaBias {
				return nil, tableErrorf("transition (%d,%d) counter deltas (%d,%d) overflow the ±%d cell lane",
					a, b, dLead, dGap, TableDeltaBias)
			}
			t.cells[a*k+b] = uint32(nb) | uint32(na)<<8 |
				uint32(dLead+TableDeltaBias)<<16 | uint32(dGap+TableDeltaBias)<<24
		}
	}
	return t, nil
}

func tableErrorf(format string, args ...interface{}) error {
	return fmt.Errorf("core: transition table: "+format, args...)
}

// K returns the number of states.
func (t *TransitionTable) K() int { return t.k }

// Cells exposes the packed [k*k] cell array for the fused kernels; see
// the type documentation for the lane layout. Callers must not mutate it.
func (t *TransitionTable) Cells() []uint32 { return t.cells }

// Role returns state s's output role.
//
//popcheck:ignore deadexport star tests check each state's role through it
func (t *TransitionTable) Role(s uint8) Role { return t.roles[s] }

// Next decodes the successor pair of (initiator a, responder b).
func (t *TransitionTable) Next(a, b uint8) (uint8, uint8) {
	c := t.cells[int(a)*t.k+int(b)]
	return uint8(c >> 8), uint8(c)
}

// Counters computes the (leaders, gap) counter pair of a configuration
// by full scan — the kernels' initial values, and what tests cross-check
// the incrementally maintained integers against. Stability is gap == 0.
func (t *TransitionTable) Counters(states []uint8) (leaders, gap int) {
	gap = -t.gapTarget
	for _, s := range states {
		if t.roles[s] == Leader {
			leaders++
		}
		gap += t.gapW[s]
	}
	return leaders, gap
}

// Apply executes one interaction (initiator u, responder v) on states in
// place and returns the transition's counter deltas. It is the readable
// reference for the cell decode the fused kernels inline.
//
//popcheck:ignore deadexport FuzzTableEquivalence in internal/sim checks the machine against it
func (t *TransitionTable) Apply(states []uint8, u, v int) (dLeaders, dGap int) {
	c := t.cells[int(states[u])*t.k+int(states[v])]
	states[u], states[v] = uint8(c>>8), uint8(c)
	return int(c>>16&0xff) - TableDeltaBias, int(c>>24) - TableDeltaBias
}
