// Package fastelect implements the paper's main contribution (Section 5,
// Theorem 24): a space-efficient leader election protocol that stabilizes
// in O(B(G)·log n) steps in expectation and with high probability using
// O(log n · h) states, where h ∈ O(log(Δ/β · log n)) ⊆ O(log n).
//
// The protocol composes three mechanisms:
//
//  1. a streak clock (Section 5.1): nodes count consecutive initiator
//     roles; completing a streak of length h is a local clock tick that a
//     degree-d node produces every E[X(d)] = (2^{h+1}−2)·m/d steps, so with
//     h ≈ log₂(B(G)·Δ/m) maximum-degree nodes tick about once per
//     broadcast time;
//  2. a level tournament: leaders gain a level per tick; levels ≥ L are
//     broadcast (Rule 3), and a node that sees a strictly larger level
//     ≥ L becomes a follower (Rule 2) — low-degree nodes tick too slowly
//     to keep up and drop out, and the surviving high-degree leaders
//     eliminate each other within O(log n) phases of O(B(G)) steps;
//  3. an always-correct backup: the first node to reach the level cap α·L
//     switches to the six-state token protocol seeded with its status, and
//     the cap value recruits every other node into the backup via the
//     level broadcast, guaranteeing finite expected stabilization time
//     even in the O(n^{-τ})-probability event that the tournament fails.
//
// A configuration is stable exactly when one node outputs leader (see
// Stable for the invariant argument).
package fastelect

import (
	"fmt"
	"math"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/protocols/streak"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// Params are the protocol's non-uniform parameters. Like the paper's
// protocol, they may depend on high-level structural information about the
// graph (n, m, Δ and the broadcast time B(G)) but are identical at every
// node.
type Params struct {
	// H is the streak length; ticks arrive every (2^{H+1}−2)·m/d steps at
	// a degree-d node.
	H int
	// L is the elimination-phase threshold: levels ≥ L broadcast and
	// eliminate strictly smaller leaders.
	L int
	// AlphaL is the level cap α·L; reaching it triggers the backup.
	AlphaL int
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.H < 1 || p.L < 1 || p.AlphaL <= p.L {
		return fmt.Errorf("fastelect: invalid params %+v", p)
	}
	return nil
}

// PaperParams returns the parameters exactly as fixed in Section 5.2:
// h = 8 + ⌈log₂(B(G)·Δ/m)⌉ and L = ⌈2τ·log₂ n⌉, with the level cap set to
// α = 8 (the paper requires a sufficiently large constant α(τ)). These
// deliver the w.h.p. guarantees but carry a ~2⁹ constant in the clock
// rate; use TunedParams for laptop-scale measurements of the same
// asymptotic shape.
func PaperParams(g graph.Graph, broadcastTime float64, tau int) Params {
	if tau < 1 {
		tau = 1
	}
	n := float64(g.N())
	h := 8 + int(math.Ceil(math.Log2(broadcastTime*float64(graph.MaxDegree(g))/float64(g.M()))))
	if h < 1 {
		h = 1
	}
	l := int(math.Ceil(2 * float64(tau) * math.Log2(n)))
	if l < 1 {
		l = 1
	}
	return Params{H: h, L: l, AlphaL: 8 * l}
}

// TunedParams returns parameters with the same functional form but
// laptop-friendly constants: h = ⌈log₂(B·Δ/m)⌉ + 2 (ticks every ≈ 8·B(G)
// steps at maximum-degree nodes instead of ≈ 512·B(G)) and L = ⌈log₂ n⌉+2.
// The asymptotic scaling O(B(G)·log n) is unchanged; only the leading
// constant and the failure probability differ, and failures are absorbed
// by the backup.
func TunedParams(g graph.Graph, broadcastTime float64) Params {
	n := float64(g.N())
	h := 2 + int(math.Ceil(math.Log2(broadcastTime*float64(graph.MaxDegree(g))/float64(g.M()))))
	if h < 1 {
		h = 1
	}
	l := int(math.Ceil(math.Log2(n))) + 2
	return Params{H: h, L: l, AlphaL: 6 * l}
}

// Protocol is the fast space-efficient protocol. Use New.
type Protocol struct {
	params Params

	clock  *streak.Clock
	level  []uint16
	leader []bool // fast-phase status; frozen once in backup
	backup []bool
	toks   []core.TokenState

	leadersFast int              // fast-phase nodes with leader status
	counts      core.TokenCounts // backup token counters
	inBackup    int
}

var _ sim.Protocol = (*Protocol)(nil)

// New returns the protocol with the given parameters.
func New(params Params) *Protocol {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if params.AlphaL > math.MaxUint16 {
		panic(fmt.Sprintf("fastelect: level cap %d exceeds uint16", params.AlphaL))
	}
	return &Protocol{params: params}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "fast-space-efficient" }

// StateCount returns the number of distinct states: fast-phase nodes use
// (h+1)·2·(αL) combinations (streak × status × level below the cap) and
// backup nodes use (h+1)·6 (streak × token machine), matching the paper's
// O(h·L) = O(log n · h(G)) bound.
func (p *Protocol) StateCount(int) float64 {
	return float64((p.params.H + 1) * (2*p.params.AlphaL + 6))
}

// Reset implements sim.Protocol.
func (p *Protocol) Reset(g graph.Graph, _ *xrand.Rand) {
	n := g.N()
	p.clock = streak.NewClock(p.params.H, n)
	p.level = make([]uint16, n)
	p.leader = make([]bool, n)
	for v := range p.leader {
		p.leader[v] = true
	}
	p.backup = make([]bool, n)
	p.toks = make([]core.TokenState, n)
	p.leadersFast = n
	p.counts = core.TokenCounts{}
	p.inBackup = 0
}

// Step implements sim.Protocol.
func (p *Protocol) Step(u, v int) {
	// Streak subroutine: initiator u may complete a streak, responder v
	// resets its counter.
	completed := p.clock.Tick(u, v)

	// Rule 1: a fast-phase leader completing a streak gains a level.
	if completed && !p.backup[u] && p.leader[u] && int(p.level[u]) < p.params.AlphaL {
		p.level[u]++
	}

	// Rules 2 and 3: elimination by, and broadcast of, levels >= L.
	lu, lv := p.level[u], p.level[v]
	if lu != lv {
		maxLvl := lu
		lo := v
		if lv > lu {
			maxLvl = lv
			lo = u
		}
		if int(maxLvl) >= p.params.L {
			p.demote(lo)
			p.level[u] = maxLvl
			p.level[v] = maxLvl
		}
	}

	// Backup entry at the level cap.
	if int(p.level[u]) == p.params.AlphaL && !p.backup[u] {
		p.enterBackup(u)
	}
	if int(p.level[v]) == p.params.AlphaL && !p.backup[v] {
		p.enterBackup(v)
	}

	// Backup token-machine step between two backup nodes.
	if p.backup[u] && p.backup[v] {
		p.counts.Step(&p.toks[u], &p.toks[v])
	}
}

// demote turns a fast-phase leader into a follower (Rule 2). Backup nodes
// sit at the level cap and are never strictly below an observed level, so
// they are never demoted; the check is defensive.
func (p *Protocol) demote(x int) {
	if !p.backup[x] && p.leader[x] {
		p.leader[x] = false
		p.leadersFast--
	}
}

// enterBackup switches node x to the six-state backup protocol,
// initialized with its fast-phase status as the candidate input. A node
// outside the backup holds FollowerNone, so only a leader's state moves.
func (p *Protocol) enterBackup(x int) {
	p.backup[x] = true
	p.inBackup++
	if p.leader[x] {
		p.leadersFast--
		p.counts.Set(&p.toks[x], core.CandidateBlack)
	}
}

// Output implements sim.Protocol.
func (p *Protocol) Output(v int) core.Role {
	if p.backup[v] {
		return p.toks[v].Role()
	}
	if p.leader[v] {
		return core.Leader
	}
	return core.Follower
}

// Leaders implements sim.Protocol.
func (p *Protocol) Leaders() int { return p.leadersFast + p.counts.Candidates }

// Stable implements sim.Protocol. The configuration is stable exactly when
// one node outputs leader:
//
//   - some node at the maximum level always outputs leader (the first to
//     attain a level below the cap by a streak completion is a leader and
//     only strictly larger levels demote; at the cap, every node is in the
//     backup, whose invariant #candidates = #black + #white with
//     #black ≥ 1 keeps a candidate alive);
//   - hence a unique leader sits at the maximum level and can never be
//     demoted, followers are never promoted, and — because the invariant
//     pins #white = 0 when #candidates = 1 — no white token can eliminate
//     a unique backup candidate.
//
// The white-token check below is therefore redundant but kept as a cheap
// cross-check of the invariant.
func (p *Protocol) Stable() bool {
	return p.leadersFast+p.counts.Candidates == 1 && p.counts.White == 0
}

// InBackup returns how many nodes run the backup protocol (experiments
// use it to report how often the fast path failed).
func (p *Protocol) InBackup() int { return p.inBackup }
