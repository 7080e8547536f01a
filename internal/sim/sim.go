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
	"fmt"
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

// Tabular is the one Protocol implementation for protocols whose node
// state fits a byte: the constant-state protocols (the six-state
// baseline of Theorem 16, the star protocol, four-state majority) and,
// with a streak clock, the fast protocol of Theorem 24. A protocol
// package supplies only its pure rule, compiled into a process-wide
// core.TransitionTable, and an init hook that writes the initial
// configuration. Per-node state is one byte, the table's state index,
// and the table's two counters (see core.TransitionTable) are the only
// counters: Leaders is the leader count, Stable is gap == 0.
//
// A clocked Tabular (NewClockedTabular) adds the streak clock of
// Section 5.1 in a second per-node byte array: every interaction resets
// the responder's streak and extends the initiator's, and an initiator
// completing a streak of h interactions takes a second table, the tick
// table, for that interaction. Both tables share their states, roles
// and counter weights.
//
// Execution plans fuse a Tabular protocol into the machine the
// specialized sampler loops share, with no Protocol interface calls
// (see engine.go); under Step dispatch the same clock and table update
// run through Step. Protocols whose state space grows with n
// (identifier) implement Protocol directly.
type Tabular struct {
	name  string
	k     int
	table *core.TransitionTable
	init  func(g graph.Graph, states []uint8)

	// The streak clock, set by NewClockedTabular: tables compiles the
	// plain and tick tables on first Reset; tick is nil without a clock.
	tables     func() (table, tick *core.TransitionTable)
	tick       *core.TransitionTable
	h          uint8
	backupFrom int // InBackup counts states >= backupFrom; 0 means none
	streak     []uint8

	states       []uint8
	leaders, gap int // table counters; gap is 0 exactly when stable
}

// NewTabular returns a k-state table protocol. table is the compiled
// machine, shared by every instance (nil only for an input that has no
// machine, such as a tied majority; Reset must then reject it, since
// nothing can run). init writes the initial configuration of g into
// states, which arrive zeroed with length g.N(), and panics to reject a
// graph or an input it cannot run on.
func NewTabular(name string, k int, table *core.TransitionTable, init func(g graph.Graph, states []uint8)) *Tabular {
	return &Tabular{name: name, k: k, table: table, init: init}
}

// NewClockedTabular returns a table protocol with a streak clock of
// length h in [1, 255], reporting k states. tables returns the plain
// and the tick table, both non-nil and over the same states; it is
// called on the first Reset, so constructing an instance (as a sweep
// does once per cell to read its name) compiles nothing. States at or
// above backupFrom count as backup states for InBackup; 0 means the
// protocol has none. init is as for NewTabular.
func NewClockedTabular(name string, k, h, backupFrom int, tables func() (table, tick *core.TransitionTable),
	init func(g graph.Graph, states []uint8)) *Tabular {
	if h < 1 || h > math.MaxUint8 {
		panic(fmt.Sprintf("sim: streak length %d outside [1, %d]", h, math.MaxUint8))
	}
	return &Tabular{name: name, k: k, init: init, tables: tables, h: uint8(h), backupFrom: backupFrom}
}

// Name implements Protocol.
func (p *Tabular) Name() string { return p.name }

// StateCount implements Protocol: the k states given at construction,
// whatever n.
func (p *Tabular) StateCount(int) float64 { return float64(p.k) }

// Reset implements Protocol: the first Reset of a clocked Tabular
// fetches its tables; init writes the initial configuration with every
// streak at 0, then the counters are computed by full scan.
func (p *Tabular) Reset(g graph.Graph, _ *xrand.Rand) {
	if p.tables != nil && p.table == nil {
		p.table, p.tick = p.tables()
	}
	n := g.N()
	if p.tick == nil {
		p.states = make([]uint8, n)
	} else {
		// One allocation holds both per-node arrays.
		buf := make([]uint8, 2*n)
		p.states, p.streak = buf[:n:n], buf[n:]
	}
	p.init(g, p.states)
	p.leaders, p.gap = p.table.Counters(p.states)
}

// Step implements Protocol: the streak clock, when there is one, then
// one table update and its counter deltas.
func (p *Tabular) Step(u, v int) {
	tab := p.table
	if p.tick != nil && streakTick(p.streak, p.h, u, v) {
		tab = p.tick
	}
	dl, dg := tab.Apply(p.states, u, v)
	p.leaders += dl
	p.gap += dg
}

// Output implements Protocol: the role of v's state.
func (p *Tabular) Output(v int) core.Role { return p.table.Role(p.states[v]) }

// Leaders implements Protocol.
func (p *Tabular) Leaders() int { return p.leaders }

// Stable implements Protocol: the table's stability functional is zero.
func (p *Tabular) Stable() bool { return p.gap == 0 }

// Gap returns the table's stability functional, 0 exactly when stable.
func (p *Tabular) Gap() int { return p.gap }

// InBackup returns how many nodes hold a backup state (at or above the
// index given to NewClockedTabular), 0 for a protocol without one. It
// scans the states: results read it once, after the run.
func (p *Tabular) InBackup() int {
	if p.backupFrom == 0 {
		return 0
	}
	count := 0
	for _, s := range p.states {
		if int(s) >= p.backupFrom {
			count++
		}
	}
	return count
}

// Table returns the compiled machine (the plain table of a clocked
// Tabular), or nil when the input has none. It is valid before Reset,
// except for a clocked Tabular, whose tables arrive on its first Reset.
//
//popcheck:ignore deadexport oracle for full-scan counter checks in six test packages
func (p *Tabular) Table() *core.TransitionTable { return p.table }

// TableStates returns the live per-node state bytes, valid after Reset.
// A fused kernel mutates them in place, so Output stays accurate
// mid-run; callers must not write them.
func (p *Tabular) TableStates() []uint8 { return p.states }

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

// Observer receives callbacks during a run, for instrumentation such as
// state-density tracking (Lemma 48 experiments) and convergence
// trajectories. ExecPlan.Run calls Observe with t = 0 right after
// p.Reset, after step t (1-based) whenever t is a multiple of the
// interval passed in Options, and once with final = true after the run
// ends, at its final step count (even when that step was just observed).
// p is the run's protocol with its counters live. Callbacks run on the
// run's control path: they must not step p or draw from the generator.
type Observer interface {
	Observe(t int64, p Protocol, final bool)
}

// Options configures a run.
type Options struct {
	// MaxSteps caps the run; 0 means DefaultMaxSteps(n).
	MaxSteps int64
	// Scheduler selects the interaction policy (see scheduler.go); nil
	// and Uniform{} both mean the paper's uniform pairwise scheduler.
	// Uniform, Weighted, NodeClock and Churn on a CSR graph compile to
	// specialized fast kernels; others (Churn on the implicit clique
	// included) run on the generic Source loop. Schedulers must be built
	// for the same graph passed to Run (Compile rejects obvious
	// mismatches).
	Scheduler Scheduler
	// Observer, if non-nil, is called at step 0, every ObserveEvery
	// steps and once at the end of the run (see Observer).
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
	// is speed; equivalence tests check against it and BenchmarkEngine
	// times it.
	Reference bool
	// NoTable forces interface dispatch (Protocol.Step / Protocol.Stable)
	// even for Tabular protocols, keeping the scheduler-specialized
	// kernel engaged. The protocol axis consumes no randomness, so
	// results are byte-identical with or without fusion; equivalence
	// tests check against it and BenchmarkEngine's "interface" cases
	// time the table-vs-interface split with it.
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
