// Package idelect implements the time-efficient identifier-based protocol
// of Theorem 21: nodes generate k-bit identifiers from the stochasticity
// of the scheduler, broadcast the maximum, and interleave the six-state
// token protocol (labelled by the identifier) as an always-correct backup
// for the low-probability event that the maximum identifier collides.
//
// With k = ⌈4 log₂ n⌉ the protocol uses O(n⁴) states and stabilizes in
// O(B(G) + n log n) expected steps on any connected graph; k = ⌈3 log₂ n⌉
// suffices on regular graphs for O(n³) states.
package idelect

import (
	"fmt"
	"math"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// Protocol is the identifier protocol. Use New.
type Protocol struct {
	kFactor int // identifier length multiplier: k = ceil(kFactor·log2 n)

	k     uint   // identifier bit length for the current population
	limit uint64 // 2^k: ids below it are still being generated

	ids  []uint64
	toks []core.TokenState
	gen  []uint64 // self-generated identifier per node, 0 until finished

	counts     core.TokenCounts // global token counts (see Stable)
	maxID      uint64           // largest finished identifier seen, 0 if none
	countAtMax int              // nodes whose id equals maxID
}

var _ sim.Protocol = (*Protocol)(nil)

// New returns the protocol for general graphs (k = ⌈4 log₂ n⌉).
func New() *Protocol { return &Protocol{kFactor: 4} }

// NewRegular returns the variant for regular graphs (k = ⌈3 log₂ n⌉),
// trading a factor n of state space against a slightly larger collision
// probability that the backup still absorbs.
func NewRegular() *Protocol { return &Protocol{kFactor: 3} }

// NewWithFactor returns the protocol with k = ⌈factor·log₂ n⌉ identifier
// bits, for the state-space/collision-rate ablation (factor in [1, 8]).
// Small factors raise the duplicate-maximum probability n/2^k and push
// runs into the slow always-correct backup; the protocol stays correct.
func NewWithFactor(factor int) *Protocol {
	if factor < 1 || factor > 8 {
		panic(fmt.Sprintf("idelect: factor %d outside [1, 8]", factor))
	}
	return &Protocol{kFactor: factor}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string {
	if p.kFactor == 3 {
		return "identifier-regular"
	}
	return "identifier"
}

// StateCount returns 6·(2^{k+1} − 1) ≈ 12·n^kFactor.
func (p *Protocol) StateCount(n int) float64 {
	k := p.bits(n)
	return 6 * (math.Pow(2, float64(k+1)) - 1)
}

func (p *Protocol) bits(n int) uint {
	k := uint(math.Ceil(float64(p.kFactor) * math.Log2(float64(n))))
	if k < 1 {
		k = 1
	}
	if k > 62 {
		panic(fmt.Sprintf("idelect: k = %d does not fit an identifier word", k))
	}
	return k
}

// Reset implements sim.Protocol.
func (p *Protocol) Reset(g graph.Graph, _ *xrand.Rand) {
	n := g.N()
	p.k = p.bits(n)
	p.limit = 1 << p.k
	p.ids = make([]uint64, n)
	for v := range p.ids {
		p.ids[v] = 1
	}
	p.toks = make([]core.TokenState, n) // FollowerNone
	p.gen = make([]uint64, n)
	p.counts = core.TokenCounts{}
	p.maxID = 0
	p.countAtMax = 0
}

// Step implements sim.Protocol. Rules applied in sequence (Section 4.2):
//
//  1. a node still generating appends its role bit: id ← 2·id + i
//     (i = 0 initiator, 1 responder); on crossing 2^k it starts a
//     six-state instance as a leader candidate;
//  2. a node seeing a larger finished identifier adopts it and joins that
//     instance as a follower;
//  3. both nodes run the six-state transition.
func (p *Protocol) Step(u, v int) {
	// Rule 1.
	if p.ids[u] < p.limit {
		p.ids[u] = 2 * p.ids[u] // + 0: initiator bit
		if p.ids[u] >= p.limit {
			p.finish(u)
		}
	}
	if p.ids[v] < p.limit {
		p.ids[v] = 2*p.ids[v] + 1 // responder bit
		if p.ids[v] >= p.limit {
			p.finish(v)
		}
	}
	// Rule 2. At most one side adopts (ids differ when both finished), and
	// a still-generating node adopts any finished neighbour identifier.
	if p.ids[u] < p.ids[v] && p.ids[v] >= p.limit {
		p.adopt(u, p.ids[v])
	} else if p.ids[v] < p.ids[u] && p.ids[u] >= p.limit {
		p.adopt(v, p.ids[u])
	}
	// Rule 3.
	a, b := p.toks[u], p.toks[v]
	na, nb := core.TokenTransition(a, b)
	if na != a {
		p.counts.Add(a, -1)
		p.counts.Add(na, 1)
		p.toks[u] = na
	}
	if nb != b {
		p.counts.Add(b, -1)
		p.counts.Add(nb, 1)
		p.toks[v] = nb
	}
}

// finish marks node w's identifier as complete: it becomes a candidate of
// its own instance and the max-identifier bookkeeping updates.
func (p *Protocol) finish(w int) {
	p.gen[w] = p.ids[w]
	old := p.toks[w]
	p.counts.Add(old, -1)
	p.counts.Add(core.CandidateBlack, 1)
	p.toks[w] = core.CandidateBlack
	switch id := p.ids[w]; {
	case id > p.maxID:
		p.maxID = id
		p.countAtMax = 1
	case id == p.maxID:
		p.countAtMax++
	}
}

// adopt makes node w join the instance with identifier id as a follower,
// destroying any token it carried (the token belonged to a dead instance).
func (p *Protocol) adopt(w int, id uint64) {
	p.ids[w] = id
	old := p.toks[w]
	if old != core.FollowerNone {
		p.counts.Add(old, -1)
		p.toks[w] = core.FollowerNone
	}
	if id == p.maxID {
		p.countAtMax++
	}
}

// Output implements sim.Protocol: the output of the embedded six-state
// instance.
func (p *Protocol) Output(v int) core.Role { return p.toks[v].Role() }

// Leaders implements sim.Protocol.
func (p *Protocol) Leaders() int { return p.counts.Candidates }

// Stable implements sim.Protocol: every node has adopted the maximum
// finished identifier and the (now unique) six-state instance has
// stabilized. At that point all tokens in the system belong to the maximum
// instance, so the global counters coincide with the instance's counters.
func (p *Protocol) Stable() bool {
	return p.maxID >= p.limit && p.countAtMax == len(p.ids) && p.counts.Stable()
}

// Finished reports whether node v's identifier is fully generated.
func (p *Protocol) Finished(v int) bool { return p.ids[v] >= p.limit }

// K returns the identifier bit length chosen at Reset.
func (p *Protocol) K() uint { return p.k }

// GeneratedID returns the identifier node v generated itself, or 0 if v
// adopted a foreign identifier before finishing its own. Experiments use
// it to measure the Lemma 22 collision probability.
func (p *Protocol) GeneratedID(v int) uint64 { return p.gen[v] }
