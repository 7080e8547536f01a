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
//
// New compiles the protocol as the paper factors it: the streak clock
// is a per-node counter whose only output is "the initiator completed
// a streak", and everything else is one byte state, so the protocol is
// a clocked sim.Tabular that the execution plans fuse into their
// kernels. Two tables over the 2αL+6 byte states, the tick table for an
// interaction whose initiator completed its streak and the plain table
// otherwise, replay Protocol.Step exactly. The hand-written Protocol
// (NewStep) stays as the path for level caps the byte states cannot
// hold and as the oracle the tables are tested against.
package fastelect

import (
	"fmt"
	"math"
	"sync"

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

// MaxFusedAlphaL is the largest level cap New compiles into tables:
// the 2αL+6 byte states must fit core.MaxTableStates. It covers
// TunedParams up to n = 2¹⁸, PaperParams (α = 8, τ = 1) up to n ≈ 180.
const MaxFusedAlphaL = (core.MaxTableStates - 6) / 2

// name is the protocol's Name, whichever implementation runs it.
const name = "fast-space-efficient"

// New returns the protocol with the given parameters: a clocked
// sim.Tabular when αL ≤ MaxFusedAlphaL, so execution plans fuse it into
// their table kernels, and the hand-written Protocol otherwise. Both
// report the same Name, StateCount and InBackup and run byte-identical
// trajectories. It panics on invalid parameters.
func New(params Params) sim.Protocol {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if params.AlphaL > MaxFusedAlphaL || params.H > streak.MaxH {
		return NewStep(params)
	}
	l, alphaL := params.L, params.AlphaL
	return sim.NewClockedTabular(name, stateCount(params), params.H, 2*alphaL,
		func() (table, tick *core.TransitionTable) { return Tables(l, alphaL) },
		allLeaders)
}

// allLeaders is the initial configuration: every node a fast-phase
// leader at level 0, state 1.
func allLeaders(_ graph.Graph, states []uint8) {
	for v := range states {
		states[v] = 1
	}
}

// tablePair is one (L, αL) entry of the table cache.
type tablePair struct{ table, tick *core.TransitionTable }

// tableCache holds the compiled tables process-wide, one entry per
// (L, αL): they do not depend on H. Each entry compiles once, on the
// first Reset that needs it.
var tableCache sync.Map // [2]int{L, αL} → func() tablePair

// Tables returns the compiled plain and tick tables for elimination
// threshold l and level cap alphaL ≤ MaxFusedAlphaL, building them on
// first use and sharing them afterwards.
func Tables(l, alphaL int) (table, tick *core.TransitionTable) {
	key := [2]int{l, alphaL}
	f, ok := tableCache.Load(key)
	if !ok {
		f, _ = tableCache.LoadOrStore(key, sync.OnceValue(func() tablePair {
			return tablePair{compile(l, alphaL, false), compile(l, alphaL, true)}
		}))
	}
	tp := f.(func() tablePair)()
	return tp.table, tp.tick
}

// node is a decoded byte state, in Protocol's terms.
type node struct {
	level  int
	leader bool
	backup bool
	tok    core.TokenState
}

// compile builds the table for one value of the clock's output:
// completed says whether the initiator completed its streak. The rule
// is Protocol.Step on decoded states, line for line. The byte states,
// for level cap αL:
//
//   - s < 2αL: a fast-phase node at level s>>1 with leader bit s&1 (a
//     node reaching the cap enters the backup in the same interaction);
//   - s ≥ 2αL: a backup node, at the cap, in token state s − 2αL.
//
// The leaders counter is the number of nodes outputting leader, and
// the gap weight of a state is [outputs leader] + [holds a white
// token], with target 1: the gap is 0 exactly when Stable holds,
// because some node always outputs leader (see Stable).
func compile(l, alphaL int, completed bool) *core.TransitionTable {
	backupFrom := 2 * alphaL
	decode := func(s uint8) node {
		if int(s) >= backupFrom {
			return node{level: alphaL, backup: true, tok: core.TokenState(int(s) - backupFrom)}
		}
		return node{level: int(s >> 1), leader: s&1 == 1}
	}
	encode := func(x node) uint8 {
		if x.backup {
			return uint8(backupFrom + int(x.tok))
		}
		s := uint8(x.level << 1)
		if x.leader {
			s |= 1
		}
		return s
	}
	enterBackup := func(x *node) {
		if x.level == alphaL && !x.backup {
			x.backup = true
			if x.leader {
				x.tok = core.CandidateBlack
			}
		}
	}
	step := func(a, b uint8) (uint8, uint8) {
		u, v := decode(a), decode(b)
		// Rule 1.
		if completed && !u.backup && u.leader && u.level < alphaL {
			u.level++
		}
		// Rules 2 and 3.
		if u.level != v.level {
			maxLvl, lo := u.level, &v
			if v.level > u.level {
				maxLvl, lo = v.level, &u
			}
			if maxLvl >= l {
				if !lo.backup {
					lo.leader = false
				}
				u.level, v.level = maxLvl, maxLvl
			}
		}
		enterBackup(&u)
		enterBackup(&v)
		if u.backup && v.backup {
			u.tok, v.tok = core.TokenTransition(u.tok, v.tok)
		}
		return encode(u), encode(v)
	}
	role := func(s uint8) core.Role {
		if x := decode(s); (x.backup && x.tok.Candidate()) || (!x.backup && x.leader) {
			return core.Leader
		}
		return core.Follower
	}
	gapWeight := func(s uint8) int {
		w := 0
		if role(s) == core.Leader {
			w++
		}
		if x := decode(s); x.backup && x.tok.Token() == core.TokenWhite {
			w++
		}
		return w
	}
	tab, err := core.NewTransitionTable(backupFrom+6, step, role, gapWeight, 1)
	if err != nil {
		panic(fmt.Sprintf("fastelect: L=%d αL=%d: %v", l, alphaL, err))
	}
	return tab
}

// Protocol is the hand-written fast space-efficient protocol, run
// through Step dispatch. Use NewStep; New picks it only for level caps
// above MaxFusedAlphaL.
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

// NewStep returns the hand-written protocol with the given parameters.
func NewStep(params Params) *Protocol {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if params.AlphaL > math.MaxUint16 {
		panic(fmt.Sprintf("fastelect: level cap %d exceeds uint16", params.AlphaL))
	}
	return &Protocol{params: params}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return name }

// StateCount returns the number of distinct states: fast-phase nodes use
// (h+1)·2·(αL) combinations (streak × status × level below the cap) and
// backup nodes use (h+1)·6 (streak × token machine), matching the paper's
// O(h·L) = O(log n · h(G)) bound.
func (p *Protocol) StateCount(int) float64 { return float64(stateCount(p.params)) }

func stateCount(params Params) int { return (params.H + 1) * (2*params.AlphaL + 6) }

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
