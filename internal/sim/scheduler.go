// Pluggable interaction schedulers. The paper's model fixes one policy —
// sample an ordered pair of adjacent nodes uniformly among all 2m — but
// its running-time bounds are parameterized by graph structure, so the
// interesting empirical territory is scenario diversity: skewed contact
// rates, asynchronous node clocks, edges that flap on and off. A
// Scheduler is an interaction-selection policy bound to one graph; Run
// takes it through Options.Scheduler.
//
// Determinism contract: a scheduler draws all randomness from the *Rand
// values it is handed (construction-time draws from the constructor's
// generator, per-step draws from the run's), never from global state, so
// a fixed seed reproduces the interaction sequence exactly. Construction
// may precompute immutable tables (alias tables, degree sums); all
// mutable per-run state lives in the Source returned by Begin, so one
// Scheduler value can serve concurrently executing trials.
//
// Plan compilation (plan.go) recognizes scheduler types: Uniform (or a
// nil Options.Scheduler), Weighted, NodeClock and Churn on a CSR graph
// each compile to a monomorphized fast kernel (engine.go) consuming the
// identical random stream as the generic Source loop — plugging in
// Uniform explicitly is byte-identical to leaving Options.Scheduler nil,
// and a weighted, node-clock or churn run is byte-identical to driving
// the scheduler's Source by hand. The churn kernel keeps its per-run
// edge state in a flat slice; churn on the implicit clique, and any
// run forced by Options.Reference, uses churnSource's map on the
// generic kernel.

package sim

import (
	"fmt"
	"math"

	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// Scheduler is an interaction-selection policy bound to a graph. Name
// labels the policy in result logs and benchmark reports; Begin starts
// one run, returning the per-run pair stream.
type Scheduler interface {
	// Name returns the policy's canonical spec-style name, e.g.
	// "uniform", "weighted:exp", "churn:64:16".
	Name() string
	// Begin returns a fresh Source holding any mutable per-run state;
	// stateless policies may return a shared immutable value. r is the
	// run's generator, available for initialization draws.
	Begin(r *xrand.Rand) Source
}

// Source is the per-run interaction stream of a Scheduler. Next returns
// the ordered pair interacting at step t (1-based, strictly increasing
// across calls), or ok = false when the sampled contact is suppressed —
// the step still counts, mirroring how the drop-rate knob consumes time
// without changing state.
type Source interface {
	Next(t int64, r *xrand.Rand) (u, v int, ok bool)
}

// samplerSource adapts a graph's own SampleEdge stream to the Source
// interface; every contact is delivered.
type samplerSource struct{ g graph.Graph }

func (s samplerSource) Next(_ int64, r *xrand.Rand) (int, int, bool) {
	u, v := s.g.SampleEdge(r)
	return u, v, true
}

// Uniform is the paper's scheduler: ordered pairs of adjacent nodes
// uniform among all 2m. Run treats a Uniform scheduler (graph-bound or
// the zero value, by value or pointer) exactly like a nil
// Options.Scheduler, so the specialized fast loops stay engaged and the
// random stream is unchanged. G is only needed by code that consumes
// the Source directly through Begin, outside Run.
type Uniform struct{ G graph.Graph }

// Name returns "uniform".
func (Uniform) Name() string { return "uniform" }

// Begin returns the graph's own SampleEdge stream, honoring the
// Scheduler contract for generic callers; Run never gets here (it
// special-cases Uniform onto the fast loops). It panics on a zero-value
// Uniform, which has no graph to sample.
func (u Uniform) Begin(*xrand.Rand) Source {
	if u.G == nil {
		panic("sim: Uniform.Begin on a graph-less Uniform{}; bind a graph or pass the scheduler to Run, which samples the run's graph directly")
	}
	return samplerSource{u.G}
}

// Weighted samples undirected edges proportionally to fixed per-edge
// rates via an alias table (two draws), then orients the pair with a
// fair coin — modeling heterogeneous contact frequencies. Stateless per
// run; construction is O(m).
type Weighted struct {
	name string
	// pairs holds the packed edges u<<32|w, u < w, in ForEachEdge
	// order. On a *graph.Dense it is the graph's own PackedEdges,
	// shared and read-only; other graphs get a copy.
	pairs []int64
	alias *xrand.Alias
}

// NewWeighted builds a weighted scheduler for g. rates holds one
// nonnegative finite rate per undirected edge, indexed in ForEachEdge
// order, with a positive sum; name labels the policy in logs.
// NewWeighted takes ownership of rates: a valid slice becomes the alias
// table's prob column (xrand.NewAlias), so the caller must not use it
// afterwards.
func NewWeighted(g graph.Graph, name string, rates []float64) (*Weighted, error) {
	if len(rates) != g.M() {
		return nil, fmt.Errorf("sim: weighted scheduler for %q wants %d edge rates, got %d",
			g.Name(), g.M(), len(rates))
	}
	alias, err := xrand.NewAlias(rates)
	if err != nil {
		return nil, fmt.Errorf("sim: weighted scheduler for %q: %w", g.Name(), err)
	}
	var pairs []int64
	if d, ok := g.(*graph.Dense); ok {
		pairs = d.PackedEdges() // the same order as ForEachEdge, so no copy
	} else {
		pairs = make([]int64, 0, g.M())
		g.ForEachEdge(func(u, w int) {
			pairs = append(pairs, int64(u)<<32|int64(w))
		})
	}
	return &Weighted{name: name, pairs: pairs, alias: alias}, nil
}

// Name returns the label passed to NewWeighted.
func (s *Weighted) Name() string { return s.name }

// Begin returns the scheduler itself: no mutable per-run state.
func (s *Weighted) Begin(*xrand.Rand) Source { return s }

// Next samples an edge from the alias table and orients it uniformly.
func (s *Weighted) Next(_ int64, r *xrand.Rand) (int, int, bool) {
	e := s.pairs[s.alias.Sample(r)]
	u, w := int(e>>32), int(e&0xffffffff)
	if r.Bool() {
		return w, u, true
	}
	return u, w, true
}

// NodeClock is the asynchronous-clock view common in the
// population-protocols literature: each node's Poisson clock ticks at
// rate proportional to its degree; on a tick the node initiates with a
// uniformly random neighbor. The induced distribution over ordered
// pairs is exactly the uniform scheduler's (deg(u)/2m · 1/deg(u) =
// 1/2m), realized through a node-centric draw sequence — a distinct
// random stream with identical statistics, which experiments use as a
// scheduler-robustness check.
type NodeClock struct {
	g     graph.Graph
	alias *xrand.Alias
}

// NewNodeClock builds a node-clock scheduler for g.
func NewNodeClock(g graph.Graph) (*NodeClock, error) {
	n := g.N()
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		deg[v] = float64(g.Degree(v))
	}
	alias, err := xrand.NewAlias(deg) // deg becomes the prob column
	if err != nil {
		return nil, fmt.Errorf("sim: node-clock scheduler for %q: %w", g.Name(), err)
	}
	return &NodeClock{g: g, alias: alias}, nil
}

// Name returns "node-clock".
func (s *NodeClock) Name() string { return "node-clock" }

// Begin returns the scheduler itself: no mutable per-run state.
func (s *NodeClock) Begin(*xrand.Rand) Source { return s }

// Next picks an initiator proportionally to degree, then a uniform
// neighbor as responder.
func (s *NodeClock) Next(_ int64, r *xrand.Rand) (int, int, bool) {
	u := s.alias.Sample(r)
	v := s.g.NeighborAt(u, r.Intn(s.g.Degree(u)))
	return u, v, true
}

// Churn models link instability: every edge independently alternates
// between an up state and a down state with geometrically distributed
// burst lengths (mean UpLen and DownLen steps). Pairs are sampled like
// the uniform scheduler, but a contact over a currently-down edge is
// suppressed — the step counts, no interaction happens. This
// generalizes the i.i.d. drop-rate knob (bursts of mean length 1 ≈
// independent drops with rate DownLen/(UpLen+DownLen)) to correlated,
// bursty failures.
//
// Edge states evolve lazily: per-run state keyed by edge holds (state,
// last step touched), and on each contact the edge's two-state Markov
// chain is advanced in closed form by the steps elapsed since — one
// Float64 draw per contact, O(1) per step, no O(m) per-step sweep. The
// Source from Begin keeps that state in a map keyed by packed edge; the
// churn-uniform kernel keeps it in a slice indexed by edge id.
type Churn struct {
	g              graph.Graph
	upLen, downLen float64
	a, b           float64 // per-step flip probabilities: up→down, down→up
}

// NewChurn builds a churn scheduler for g with mean burst lengths
// upLen, downLen (both >= 1 and finite).
func NewChurn(g graph.Graph, upLen, downLen float64) (*Churn, error) {
	if !(upLen >= 1) || math.IsInf(upLen, 0) || !(downLen >= 1) || math.IsInf(downLen, 0) {
		return nil, fmt.Errorf("sim: churn scheduler for %q: burst lengths must be finite and >= 1, got up=%v down=%v",
			g.Name(), upLen, downLen)
	}
	return &Churn{g: g, upLen: upLen, downLen: downLen, a: 1 / upLen, b: 1 / downLen}, nil
}

// Name returns "churn:UP:DOWN" with the mean burst lengths.
func (s *Churn) Name() string {
	return fmt.Sprintf("churn:%s:%s", formatBurst(s.upLen), formatBurst(s.downLen))
}

func formatBurst(v float64) string {
	if v == math.Trunc(v) && v < 1<<63 { // int64(v) is exact only below 2⁶³
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Begin returns a fresh source: per-run edge states start from the
// stationary distribution, drawn lazily on first contact.
func (s *Churn) Begin(*xrand.Rand) Source {
	return &churnSource{sched: s, state: make(map[int64]churnEdge)}
}

type churnEdge struct {
	up bool
	t  int64 // step of the last contact that resolved this edge's state
}

type churnSource struct {
	sched *Churn
	state map[int64]churnEdge
}

// Next samples a uniform ordered pair, then resolves whether its edge is
// currently up by advancing the edge's on/off chain to step t.
func (c *churnSource) Next(t int64, r *xrand.Rand) (int, int, bool) {
	s := c.sched
	u, v := s.g.SampleEdge(r)
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	key := int64(lo)<<32 | int64(hi)
	// Probability the edge is up at step t. Stationary on first contact;
	// otherwise the k-step transition of the two-state chain:
	// P(up) = π + (1−a−b)^k · (±deviation), π = b/(a+b). The float64
	// conversion rounds the product, as amd64 does, where arm64 would
	// fuse it into an FMA.
	pi := s.b / (s.a + s.b)
	pUp := pi
	if e, seen := c.state[key]; seen {
		decay := math.Pow(1-s.a-s.b, float64(t-e.t))
		if e.up {
			pUp = pi + float64(decay*(1-pi))
		} else {
			pUp = pi * (1 - decay)
		}
	}
	up := r.Float64() < pUp
	c.state[key] = churnEdge{up: up, t: t}
	return u, v, up
}
