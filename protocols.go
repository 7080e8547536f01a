package popgraph

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"popgraph/internal/core"
	"popgraph/internal/protocols/beauquier"
	"popgraph/internal/protocols/fastelect"
	"popgraph/internal/protocols/idelect"
	"popgraph/internal/protocols/majority"
	"popgraph/internal/protocols/star"
	"popgraph/internal/sim"
)

// Role is a node's output: Leader or Follower.
type Role = core.Role

// TransitionTable is a compiled finite-state protocol: the transition
// function δ: S×S → S×S as a flat packed array plus per-state output
// roles and the counter deltas behind O(1) Leaders/Stable maintenance.
// See Tabular.
type TransitionTable = core.TransitionTable

// Tabular is the one Protocol implementation for constant-state
// protocols: a compiled TransitionTable plus per-node state bytes and
// the table's two counters. Compiled execution plans fuse Tabular
// protocols into the type-specialized scheduler kernels, removing every
// interface call from the interaction hot loop; results are
// byte-identical to interface dispatch (the protocol axis consumes no
// randomness). The constant-state protocols — six-state, star, majority
// — are Tabular, and so is fast, as a clocked Tabular whose streak
// clock picks one of two tables, for level caps αL ≤ 125; identifier,
// whose state space grows as n⁴, is not. ExecPlan.ProtocolEngine
// reports which dispatch a run would use; Options.NoTable forces
// interface dispatch.
type Tabular = sim.Tabular

// Output roles.
const (
	Follower = core.Follower
	Leader   = core.Leader
)

// NewSixState returns the constant-state (6-state) token protocol of
// Beauquier et al., the paper's space baseline: every node starts as a
// leader candidate holding a black token; stabilization takes
// O(H(G)·n·log n) expected steps where H(G) is the worst-case classic
// random-walk hitting time (Theorem 16).
func NewSixState() Protocol { return beauquier.New() }

// NewSixStateWithCandidates returns the six-state protocol started from a
// restricted nonempty candidate set (the Theorem 16 input variant used as
// a backup protocol).
func NewSixStateWithCandidates(candidates []int) Protocol {
	return beauquier.NewWithCandidates(candidates)
}

// NewIdentifier returns the time-efficient identifier protocol of
// Theorem 21: nodes draw ⌈4·log₂ n⌉-bit identifiers from the scheduler's
// randomness and elect the maximum, with the six-state protocol as an
// always-correct backup. O(n⁴) states, O(B(G) + n·log n) expected steps.
func NewIdentifier() Protocol { return idelect.New() }

// NewIdentifierRegular returns the Theorem 21 variant for regular graphs
// with ⌈3·log₂ n⌉-bit identifiers and O(n³) states.
func NewIdentifierRegular() Protocol { return idelect.NewRegular() }

// FastParams are the non-uniform parameters of the fast space-efficient
// protocol (streak length H, elimination threshold L, level cap AlphaL).
type FastParams = fastelect.Params

// FastPaperParams returns Theorem 24's parameters exactly as in the
// paper, given an estimate of the worst-case expected broadcast time
// B(G) (see EstimateBroadcastTime) and the failure exponent τ.
func FastPaperParams(g Graph, broadcastTime float64, tau int) FastParams {
	return fastelect.PaperParams(g, broadcastTime, tau)
}

// FastTunedParams returns parameters with the paper's functional form but
// laptop-scale constants; the O(B(G)·log n) scaling is unchanged.
func FastTunedParams(g Graph, broadcastTime float64) FastParams {
	return fastelect.TunedParams(g, broadcastTime)
}

// NewFast returns the paper's main contribution (Section 5, Theorem 24):
// streak-clock-driven level tournament among high-degree nodes with a
// constant-state backup. O(log n · h(G)) ⊆ O(log² n) states and
// O(B(G)·log n) stabilization time in expectation and w.h.p. The
// protocol is a clocked Tabular when params.AlphaL ≤ 125, which
// TunedParams keeps up to n = 2¹⁸.
func NewFast(params FastParams) Protocol { return fastelect.New(params) }

// NewFastFor builds the fast protocol for g end to end: it estimates
// B(G) with the given generator and applies the tuned parameters.
func NewFastFor(g Graph, r *Rand) Protocol {
	return fastelect.New(fastelect.TunedParams(g, EstimateBroadcastTime(g, r)))
}

// NewStarProtocol returns the trivial constant-state protocol that
// stabilizes in exactly one interaction on star graphs (Table 1, row
// "Stars"). It rejects non-star graphs at Reset.
func NewStarProtocol() Protocol { return star.New() }

// MajorityResult reports the outcome of a majority computation.
type MajorityResult struct {
	// Steps is the stabilization time in interactions.
	Steps int64
	// Stabilized reports whether a stable configuration was reached.
	Stabilized bool
	// Winner is the stabilized opinion (meaningful when Stabilized).
	Winner bool
}

// NewMajority returns the exact four-state majority protocol over the
// boolean inputs (one per node at Reset; not a tie) as a Protocol, so
// it runs through the same compiled execution plans as the
// leader-election protocols. Output encodes the binary opinion as a
// Role — opinion 1 is Leader, opinion 0 Follower — so Leaders() counts
// the nodes currently outputting 1; a Result's Leader field is usually
// −1, majority being a many-winners problem. The protocol is Tabular.
func NewMajority(inputs []bool) Protocol { return majority.New(inputs) }

// RunMajority runs the extension module: exact four-state majority over
// the boolean inputs (one per node, not a tie) on g, using the same
// token random-walk techniques as the six-state leader election protocol.
// Stabilization takes O(H(G)·n·log n) expected steps. The run goes
// through the standard compiled execution plan, so maxSteps <= 0 means
// the same default cap as every other entry point
// (sim.DefaultMaxSteps of the graph size).
func RunMajority(g Graph, inputs []bool, r *Rand, maxSteps int64) MajorityResult {
	p := majority.New(inputs)
	res := Run(g, p, r, Options{MaxSteps: maxSteps})
	return MajorityResult{
		Steps:      res.Steps,
		Stabilized: res.Stabilized,
		Winner:     res.Stabilized && p.Output(0) == Leader,
	}
}

// ParseProtocol builds a protocol from a CLI spec:
//
//	six-state | identifier | identifier-regular | fast | star | majority:FRAC
//
// "fast" estimates B(G) for g using r and applies tuned parameters.
// "majority:FRAC" (FRAC strictly between 0 and 1) assigns opinion 1 to
// the first round(FRAC·n) nodes; fractions whose rounded count is a tie
// or unanimous (no minority left to out-vote — a degenerate cell that
// stabilizes immediately) are rejected.
func ParseProtocol(spec string, g Graph, r *Rand) (Protocol, error) {
	factory, err := ProtocolFactory(spec, g, r)
	if err != nil {
		return nil, err
	}
	return factory(), nil
}

// ProtocolFactory resolves a CLI protocol spec (see ParseProtocol) to a
// factory producing fresh instances, as required by the parallel trial
// runner: concurrently running trials must not share protocol state.
// Graph-dependent tuning ("fast" estimates B(G) using r) happens once,
// here, not per instance; a tuning failure (degenerate graph, invalid
// derived parameters) comes back as an error, never a panic, so CLI
// tools can report the spec instead of crashing.
func ProtocolFactory(spec string, g Graph, r *Rand) (factory func() Protocol, err error) {
	defer func() {
		if p := recover(); p != nil {
			factory = nil
			err = fmt.Errorf("popgraph: protocol %q on graph %q: %v", spec, g.Name(), p)
		}
	}()
	switch spec {
	case "six-state", "sixstate", "six":
		return func() Protocol { return NewSixState() }, nil
	case "identifier", "id":
		return func() Protocol { return NewIdentifier() }, nil
	case "identifier-regular", "id-regular":
		return func() Protocol { return NewIdentifierRegular() }, nil
	case "fast":
		params := FastTunedParams(g, EstimateBroadcastTime(g, r))
		return func() Protocol { return NewFast(params) }, nil
	case "star":
		return func() Protocol { return NewStarProtocol() }, nil
	default:
		if frac, ok := strings.CutPrefix(spec, "majority:"); ok {
			return majorityFactory(spec, frac, g.N())
		}
		return nil, fmt.Errorf("popgraph: unknown protocol %q (want six-state | identifier | identifier-regular | fast | star | majority:FRAC)", spec)
	}
}

// majorityFactory resolves a "majority:FRAC" spec: the first
// round(FRAC·n) nodes get opinion 1, deterministically, so a sweep
// cell's input is fixed across trials. Fractions outside (0, 1) are
// spec errors, and so are fractions whose rounded count is a tie
// (never stabilizes; Reset would panic) or unanimous (nothing to
// compute — the run would stabilize on its first interaction).
func majorityFactory(spec, frac string, n int) (func() Protocol, error) {
	f, err := strconv.ParseFloat(frac, 64)
	if err != nil || math.IsNaN(f) || f <= 0 || f >= 1 {
		return nil, fmt.Errorf("popgraph: bad protocol spec %q: fraction must be strictly between 0 and 1", spec)
	}
	ones := int(f*float64(n) + 0.5)
	if 2*ones == n {
		return nil, fmt.Errorf("popgraph: bad protocol spec %q: rounds to a tie (%d of %d opinions) which never stabilizes",
			spec, ones, n)
	}
	if ones <= 0 || ones >= n {
		return nil, fmt.Errorf("popgraph: bad protocol spec %q: rounds to a unanimous input (%d of %d opinions), a degenerate cell with no minority to out-vote",
			spec, ones, n)
	}
	inputs := make([]bool, n)
	for i := 0; i < ones; i++ {
		inputs[i] = true
	}
	return func() Protocol { return NewMajority(inputs) }, nil
}
