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
// The protocol implements sim.Protocol so it runs through the compiled
// execution plans like every leader-election protocol: Output maps
// opinion 1 to core.Leader and opinion 0 to core.Follower (so Leaders()
// counts the nodes currently outputting 1 — a Result's Leader field is
// usually −1, majority being a many-winners problem). Its four states
// also make it sim.Tabular: the transition table, generated from Step
// itself, depends on the input's majority sign (the stability functional
// counts the losing side's nodes), so there are two tables, each built
// once per process, and New picks one by the sign of the input margin.
package majority

import (
	"fmt"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// state is one of the four node states.
type state = uint8

const (
	weak0 state = iota
	weak1
	strong0
	strong1
)

// Protocol is the 4-state exact majority protocol.
type Protocol struct {
	inputs []bool // initial opinions, fixed at New
	margin int    // #ones − #zeros of inputs
	states []uint8

	counts [4]int
}

var _ sim.Tabular = (*Protocol)(nil)

// New returns the protocol with the given initial opinions (length must
// equal the graph size at Reset; must not be a tie).
func New(inputs []bool) *Protocol {
	margin := 0
	for _, b := range inputs {
		if b {
			margin++
		} else {
			margin--
		}
	}
	return &Protocol{inputs: append([]bool(nil), inputs...), margin: margin}
}

// Name identifies the protocol.
func (p *Protocol) Name() string { return "four-state-majority" }

// StateCount returns 4.
func (p *Protocol) StateCount(int) float64 { return 4 }

// Reset initializes every node to a strong copy of its input opinion.
func (p *Protocol) Reset(g graph.Graph, _ *xrand.Rand) {
	n := g.N()
	if len(p.inputs) != n {
		panic(fmt.Sprintf("majority: %d inputs for %d nodes", len(p.inputs), n))
	}
	if p.margin == 0 {
		panic("majority: tie inputs never stabilize; supply a strict majority")
	}
	p.states = make([]uint8, n)
	p.counts = [4]int{}
	for v, b := range p.inputs {
		if b {
			p.states[v] = strong1
		} else {
			p.states[v] = strong0
		}
		p.counts[p.states[v]]++
	}
}

// Step applies one interaction (u initiator, v responder).
func (p *Protocol) Step(u, v int) {
	a, b := p.states[u], p.states[v]
	na, nb := transition(a, b)
	if na != a {
		p.counts[a]--
		p.counts[na]++
		p.states[u] = na
	}
	if nb != b {
		p.counts[b]--
		p.counts[nb]++
		p.states[v] = nb
	}
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

// Opinion returns node v's current output opinion.
func (p *Protocol) Opinion(v int) bool {
	s := p.states[v]
	return s == weak1 || s == strong1
}

// Output implements sim.Protocol: opinion 1 outputs Leader, opinion 0
// Follower (the Role encoding of the binary opinion).
func (p *Protocol) Output(v int) core.Role {
	if p.Opinion(v) {
		return core.Leader
	}
	return core.Follower
}

// Ones returns the number of nodes currently outputting opinion 1.
func (p *Protocol) Ones() int { return p.counts[weak1] + p.counts[strong1] }

// Leaders implements sim.Protocol: the number of nodes outputting
// opinion 1 (see Output).
func (p *Protocol) Leaders() int { return p.Ones() }

// StrongDifference returns #strong1 − #strong0, the conserved quantity
// equal to the input difference; tests assert its invariance.
func (p *Protocol) StrongDifference() int { return p.counts[strong1] - p.counts[strong0] }

// Stable reports whether the configuration is stable: only one sign
// remains (weak and strong), so no rule can ever change an output.
func (p *Protocol) Stable() bool {
	zeros := p.counts[weak0] + p.counts[strong0]
	ones := p.counts[weak1] + p.counts[strong1]
	return (zeros == 0 && p.counts[strong1] > 0) || (ones == 0 && p.counts[strong0] > 0)
}

// onesWin and zerosWin are the compiled machines for a positive and a
// negative input margin, each built once per process.
var (
	onesWin  = buildTable(func(s uint8) bool { return s == weak0 || s == strong0 })
	zerosWin = buildTable(func(s uint8) bool { return s == weak1 || s == strong1 })
)

// buildTable compiles the four-state machine by probing Step over every
// state pair. The stability functional counts the losing side's nodes
// (weak and strong) with target 0: the conserved strong difference
// keeps the winning side's strong count positive, so "no loser left"
// is exactly Stable() on every reachable configuration.
func buildTable(losing func(s uint8) bool) *core.TransitionTable {
	tab, err := core.NewTransitionTable(4,
		func(a, b uint8) (uint8, uint8) {
			probe := &Protocol{states: []uint8{a, b}}
			probe.Step(0, 1)
			return probe.states[0], probe.states[1]
		},
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

// Table implements sim.Tabular: the process-wide table for the input
// margin's sign, fixed at New. Tie inputs return nil (Reset rejects
// them anyway).
func (p *Protocol) Table() *core.TransitionTable {
	switch {
	case p.margin > 0:
		return onesWin
	case p.margin < 0:
		return zerosWin
	}
	return nil
}

// TableStates implements sim.Tabular: the live state bytes, aliased.
func (p *Protocol) TableStates() []uint8 { return p.states }

// ReloadCounters implements sim.Tabular: rebuild the four state counts
// by full scan after a fused kernel mutated the state array directly;
// the kernel's leader count cross-checks the counter maintenance.
func (p *Protocol) ReloadCounters(leaders, _ int) {
	var c [4]int
	for _, s := range p.states {
		c[s]++
	}
	if ones := c[weak1] + c[strong1]; ones != leaders {
		panic(fmt.Sprintf("majority: table kernel ones count %d, state scan %d", leaders, ones))
	}
	p.counts = c
}
