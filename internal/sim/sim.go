// Package sim provides the population-protocol execution engine: the
// scheduler loop with pluggable interaction-selection policies, the
// Protocol interface implemented by every protocol in internal/protocols,
// stabilization detection and optional observers for instrumentation.
//
// A time step, as in the paper, is one pairwise interaction: the scheduler
// samples an ordered pair (u, v) of adjacent nodes uniformly among all 2m
// ordered pairs, u interacting as initiator and v as responder. Beyond
// that default, Options.Scheduler plugs in alternative policies —
// weighted per-edge rates, degree-proportional node clocks, bursty link
// churn (see scheduler.go) — for scenario diversity experiments.
//
// Every run executes through a compiled execution plan (see plan.go):
// Compile validates the configuration and selects one of five
// block-sampling sampler loops (engine.go) for the scheduler × graph
// shape — uniform on the concrete graph types, weighted alias-table,
// node-clock, churn on CSR graphs — with drop-rate injection folded into
// the loops and observers handled by chunk boundaries. The five loops
// share one protocol machine, which applies a Tabular protocol's
// transition table inline or dispatches Protocol.Step. Specialized
// kernels consume the identical random stream as the generic
// Source-driven reference loop, so results are byte-identical whichever
// kernel a plan picks.
package sim

import (
	"math"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// Protocol is a population protocol with its per-node state stored
// internally (structure-of-arrays for speed). Implementations keep O(1)
// counters so Leaders and Stable are constant-time; tests cross-check the
// counters against full scans.
type Protocol interface {
	// Name identifies the protocol in tables and benchmarks.
	Name() string
	// StateCount returns the number of distinct node states the protocol
	// uses for population size n (possibly huge, hence float64).
	StateCount(n int) float64
	// Reset initializes all n nodes to the protocol's initial state for
	// the given graph. Protocols may precompute graph-derived parameters.
	Reset(g graph.Graph, r *xrand.Rand)
	// Step applies one interaction with initiator u and responder v.
	// Step must not draw from the generator passed to Reset: the
	// specialized kernels prefetch that generator's stream in blocks,
	// so a draw inside Step would desynchronize every kernel from the
	// reference loop.
	Step(u, v int)
	// Output returns node v's current output.
	Output(v int) core.Role
	// Leaders returns the number of nodes currently outputting Leader.
	Leaders() int
	// Stable reports whether the current configuration is stable and
	// correct: exactly one leader whose output can never change under any
	// future schedule.
	Stable() bool
}

// Tabular is a Protocol whose whole transition function fits in a
// compiled core.TransitionTable — the constant-state regime of the
// space-efficiency line of work (the six-state baseline of Theorem 16,
// the star protocol, four-state majority). Execution plans fuse Tabular
// protocols into the protocol machine the specialized sampler loops
// share: the interaction becomes two byte loads, one table lookup, two
// byte stores and a counter-delta add, with no Protocol interface calls
// (see engine.go). Protocols whose state space grows with n
// (identifier, fast) simply don't implement it and keep Step dispatch.
//
// Implementations generate the table from their own hand-written Step
// logic (typically by probing Step over all state pairs), so the
// transition rules keep a single source of truth. A table belongs to
// the protocol, not to an instance: the in-tree protocols build each
// one once per process, so Table is an O(1) lookup.
type Tabular interface {
	Protocol
	// Table returns the compiled machine for the protocol's current
	// configuration, or nil when it cannot be table-compiled (the run
	// then uses interface dispatch). It must be callable both before
	// Reset (plans report the engine choice up front) and after, and
	// cheap: plans call it on every run.
	Table() *core.TransitionTable
	// TableStates returns the live per-node state-index slice, aliasing
	// the protocol's own storage; fused kernels mutate it in place, so
	// Output and state accessors stay accurate mid-run. Valid after
	// Reset; every entry is < Table().K().
	TableStates() []uint8
	// ReloadCounters restores the protocol's internal counters after a
	// fused kernel mutated TableStates behind Step's back; the plan
	// calls it before every observer callback and at the end of the
	// run. leaders and gap are the kernel's incrementally maintained
	// table counters (see core.TransitionTable); implementations
	// reconcile any further counters from their state array, typically
	// by an O(n) scan. That scan prices observation, not simulation: an
	// attached observer with a fine-grained interval (ObserveEvery near
	// 1) costs O(n) per callback on top of the observer's own work, so
	// heavily instrumented large-n runs may prefer Options.NoTable,
	// whose Step dispatch keeps counters in O(1) per step.
	ReloadCounters(leaders, gap int)
}

// ScriptedSampler is a Scheduler that replays a fixed sequence of
// ordered pairs, then panics if exhausted. For deterministic unit tests
// only: Begin returns the sampler itself as the run's Source, so the
// script position is shared state and one value drives one run.
type ScriptedSampler struct {
	Pairs [][2]int
	next  int
}

// Name returns "scripted".
func (s *ScriptedSampler) Name() string { return "scripted" }

// Begin returns s itself.
func (s *ScriptedSampler) Begin(*xrand.Rand) Source { return s }

// Next returns the next scripted pair; every contact is delivered.
func (s *ScriptedSampler) Next(int64, *xrand.Rand) (int, int, bool) {
	if s.next >= len(s.Pairs) {
		panic("sim: scripted sampler exhausted")
	}
	p := s.Pairs[s.next]
	s.next++
	return p[0], p[1], true
}

// Observer receives periodic callbacks during a run, for instrumentation
// such as state-density tracking (Lemma 48 experiments).
type Observer interface {
	// Observe is called after step t (1-based) whenever t is a multiple of
	// the interval passed in Options.
	Observe(t int64)
}

// ProtocolBinder is an optional Observer extension: observers that need
// the run's protocol instance (telemetry.Trajectory samples its leader
// count) implement it and are handed the freshly Reset protocol before
// the first step. Binding happens on the run's control path only — it
// cannot consume randomness or alter step ordering.
type ProtocolBinder interface {
	Bind(p any)
}

// RunFinisher is an optional Observer extension: implementations are
// called once after the run ends — after the kernel has rewound the
// generator and reconciled protocol counters — with the final step
// count, so curves can close with a terminal sample even when the run
// ends off the observation grid.
type RunFinisher interface {
	Finish(steps int64)
}

// Options configures a run.
type Options struct {
	// MaxSteps caps the run; 0 means DefaultMaxSteps(n).
	MaxSteps int64
	// Scheduler selects the interaction policy (see scheduler.go); nil
	// and Uniform{} both mean the paper's uniform pairwise scheduler.
	// Uniform, Weighted and NodeClock compile to specialized fast
	// kernels; others run on the generic Source loop. Schedulers must be
	// built for the same graph passed to Run (Compile rejects obvious
	// mismatches).
	Scheduler Scheduler
	// Observer, if non-nil, is called every ObserveEvery steps.
	Observer     Observer
	ObserveEvery int64
	// DropRate injects communication failures: each sampled interaction
	// is silently dropped (no state change, still counted as a step) with
	// this probability. Stable leader election is schedule-oblivious, so
	// protocols still stabilize, slowed by a factor 1/(1−DropRate);
	// experiments use this to check robustness. Must be in [0, 1); other
	// values are a Compile error (and a panic through the Run wrapper).
	DropRate float64
	// Reference forces the generic Source-driven reference kernel even
	// when a specialized kernel exists for the configuration. The Result,
	// observer callbacks and post-run generator state are byte-identical
	// either way — that is the determinism contract — so the only effect
	// is speed; equivalence tests and cmd/bench use it to time the
	// reference loop.
	Reference bool
	// NoTable forces interface dispatch (Protocol.Step / Protocol.Stable)
	// even for Tabular protocols, keeping the scheduler-specialized
	// kernel engaged. The protocol axis consumes no randomness, so
	// results are byte-identical with or without fusion; equivalence
	// tests and cmd/bench use it to isolate the table-vs-interface
	// speedup.
	NoTable bool
	// Meter, if non-nil, receives flight-recorder accounting — steps,
	// chunks, RNG refills, drops, observer calls, kernel dispatch — once
	// per run. Metering is invisible to the simulation: it never draws
	// randomness or reorders steps, counters accumulate in kernel-local
	// ints and are flushed in one batch after the run's result is
	// decided, so results are byte-identical with Meter set or nil (the
	// equivalence matrix asserts this). The same Meter may be shared by
	// concurrent runs, since each flush is one locked update; the runner
	// gives each worker a private shard instead, so flushes never wait
	// on another worker's.
	Meter *telemetry.Counters
}

// DefaultMaxSteps returns the default step cap: generous enough for the
// slowest protocol/graph pair we simulate (constant-state protocol on a
// lollipop runs in Θ(n⁴ log n), via H(G) = Θ(n³) worst-case hitting
// time); runs hitting the cap report Stabilized = false rather than
// spinning forever. The cap is 72·n⁴·log₂n with a floor of 2²² steps for
// tiny graphs, computed in float64 and clamped to 2⁶² so it cannot
// overflow int64 at any n.
func DefaultMaxSteps(n int) int64 {
	const (
		floor = 1 << 22
		clamp = 1 << 62
	)
	nf := float64(n)
	cap64 := 72 * nf * nf * nf * nf * math.Log2(nf)
	if !(cap64 > floor) { // NaN-safe: n <= 1 gives NaN/−Inf, take the floor
		return floor
	}
	if cap64 > clamp {
		return clamp
	}
	return int64(cap64)
}

// Result reports the outcome of a run.
type Result struct {
	// Steps is the stabilization time (number of interactions), or the
	// step cap when Stabilized is false.
	Steps int64
	// Stabilized reports whether a stable correct configuration was
	// reached before the cap.
	Stabilized bool
	// Leader is the elected node, or -1 when not stabilized.
	Leader int
}

// RunE compiles (g, opts) into an execution plan and runs p on it,
// returning an error instead of panicking on invalid configurations
// (graphs with n < 2, drop rates outside [0, 1), schedulers built for a
// different graph). Batch drivers use it so bad grid cells surface as
// per-trial errors rather than recovered panics.
func RunE(g graph.Graph, p Protocol, r *xrand.Rand, opts Options) (Result, error) {
	pl, err := Compile(g, opts)
	if err != nil {
		return Result{}, err
	}
	return pl.Run(p, r), nil
}

// Run resets p on g and executes the stochastic scheduler until the
// protocol reports a stable configuration or the step cap is hit. It is
// the panicking wrapper around RunE, kept for compatibility: invalid
// configurations panic with the error Compile returned. Callers running
// untrusted configurations should use Compile/RunE.
func Run(g graph.Graph, p Protocol, r *xrand.Rand, opts Options) Result {
	res, err := RunE(g, p, r, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// FindLeader scans outputs and returns the unique leader, or -1 if the
// number of leaders is not exactly one.
func FindLeader(g graph.Graph, p Protocol) int {
	leader := -1
	for v := 0; v < g.N(); v++ {
		if p.Output(v) == core.Leader {
			if leader >= 0 {
				return -1
			}
			leader = v
		}
	}
	return leader
}

// CountLeaders scans outputs and returns the number of leaders; used by
// tests to validate protocols' O(1) Leaders counters.
//
//popcheck:ignore deadexport oracle for the O(1) Leaders counters in five protocol test packages
func CountLeaders(g graph.Graph, p Protocol) int {
	count := 0
	for v := 0; v < g.N(); v++ {
		if p.Output(v) == core.Leader {
			count++
		}
	}
	return count
}
