// Execution plans. Compile validates a run configuration once — graph
// size, drop rate, scheduler/graph binding — and selects the single
// fastest kernel (engine.go) for the scheduler × graph shape: one of the
// five sampler loops, or the generic Source loop. Each run binds that
// loop to the protocol machine it shares with the other four (table
// update for a fusable Tabular protocol, Protocol.Step otherwise);
// ExecPlan then drives the kernel in bounded chunks, placing chunk
// boundaries exactly on observer ticks. One engine architecture serves
// every scenario: a weighted-scheduler run with failure injection and
// an attached observer executes the same monomorphized block-sampling
// loop as an uninstrumented one, just with shorter chunks.
//
// The chunk length is min(rngBlockSize, steps to the next observer
// boundary, steps to the cap). Kernels keep their block-prefetch state
// alive across chunks, so boundary placement never changes the random
// stream — only where control returns to the plan for the Observe
// callback and the stabilization exit.

package sim

import (
	"fmt"
	"math"

	"popgraph/internal/graph"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// planMode identifies the kernel a plan compiled to.
type planMode uint8

const (
	// modeGeneric is the Source-driven reference loop: custom graph or
	// scheduler types, churn on the implicit clique, and anything forced
	// by Options.Reference.
	modeGeneric planMode = iota
	modeDenseUniform
	modeCliqueUniform
	modeWeighted
	modeNodeClock
	modeChurnUniform
)

var planModeNames = [...]string{
	modeGeneric:       "generic",
	modeDenseUniform:  "dense-uniform",
	modeCliqueUniform: "clique-uniform",
	modeWeighted:      "weighted",
	modeNodeClock:     "node-clock",
	modeChurnUniform:  "churn-uniform",
}

// ExecPlan is a compiled run configuration: the validated (graph,
// scheduler, drop, observer, cap) tuple bound to the specialized kernel
// that will execute it. A plan is immutable and holds no per-run state —
// kernels are instantiated inside Run — so one plan may drive any number
// of runs, including concurrently, provided each run has its own
// Protocol and generator (as always) and the plan's Observer, which is
// shared across its runs, is nil or itself safe for concurrent use.
type ExecPlan struct {
	g         graph.Graph
	maxSteps  int64
	drop      float64
	observer  Observer
	every     int64
	mode      planMode
	noTable   bool      // Options.NoTable: force Step dispatch for Tabular protocols
	sched     Scheduler // non-nil when a non-uniform scheduler drives the run
	weighted  *Weighted
	nodeClock *NodeClock
	churn     *Churn
	meter     *telemetry.Counters // Options.Meter: nil disables run accounting
}

// Engine names the scheduler kernel the plan compiled to —
// "dense-uniform", "clique-uniform", "weighted", "node-clock",
// "churn-uniform" or "generic" — for benchmark reports and logs. The
// protocol axis is orthogonal: ProtocolEngine reports whether a given
// protocol's transition table is fused into the kernel's protocol
// machine.
func (pl *ExecPlan) Engine() string { return planModeNames[pl.mode] }

// ProtocolEngine reports the protocol dispatch a run of p on this plan
// selects: "table" when p is Tabular, provides a table, and the plan
// compiled to a specialized kernel (whose machine then applies the
// table inline); "step" otherwise (Protocol.Step interface dispatch).
// Benchmark reports record it per cell.
func (pl *ExecPlan) ProtocolEngine(p Protocol) string {
	if pl.fusable(p) != nil {
		return "table"
	}
	return "step"
}

// fusable returns the Tabular view of p when this plan would fuse its
// table into the kernel's machine, nil otherwise. Fusion needs a
// specialized scheduler kernel (the generic Source loop keeps interface
// dispatch), no NoTable override, and a protocol that actually produces
// a table for its current configuration.
func (pl *ExecPlan) fusable(p Protocol) Tabular {
	if pl.noTable || pl.mode == modeGeneric {
		return nil
	}
	tp, ok := p.(Tabular)
	if !ok || tp.Table() == nil {
		return nil
	}
	return tp
}

// MaxSteps returns the resolved step cap (Options.MaxSteps, or
// DefaultMaxSteps of the graph when that was zero).
//
//popcheck:ignore deadexport popgraph_test.go checks the resolved step cap through it
func (pl *ExecPlan) MaxSteps() int64 { return pl.maxSteps }

// Compile validates opts against g and selects the execution kernel.
// All input checking lives here: Run-time panics on bad configurations
// are gone, callers that want errors use Compile or RunE, and the
// legacy Run wrapper panics with the error Compile returned.
func Compile(g graph.Graph, opts Options) (*ExecPlan, error) {
	if g == nil {
		return nil, fmt.Errorf("sim: nil graph")
	}
	if g.N() < 2 {
		return nil, fmt.Errorf("sim: graph %q too small (n=%d)", g.Name(), g.N())
	}
	if math.IsNaN(opts.DropRate) || opts.DropRate < 0 || opts.DropRate >= 1 {
		return nil, fmt.Errorf("sim: drop rate %v outside [0, 1)", opts.DropRate)
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps(g.N())
	}
	every := opts.ObserveEvery
	if every <= 0 {
		every = 1
	}
	pl := &ExecPlan{
		g:        g,
		maxSteps: maxSteps,
		drop:     opts.DropRate,
		observer: opts.Observer,
		every:    every,
		noTable:  opts.NoTable,
		meter:    opts.Meter,
	}
	// The uniform policy (nil or Uniform{}, graph-bound or not) is the
	// graph's own SampleEdge distribution.
	sched := opts.Scheduler
	switch sched.(type) {
	case Uniform, *Uniform:
		sched = nil
	}
	pl.sched = sched
	// Scheduler/graph binding is validated regardless of which kernel
	// ends up selected: a Reference-forced run must reject the same
	// configurations the specialized kernels would.
	switch s := sched.(type) {
	case *Weighted:
		if s.alias.N() != g.M() {
			return nil, fmt.Errorf("sim: weighted scheduler %q is built for %d edges, graph %q has %d",
				s.Name(), s.alias.N(), g.Name(), g.M())
		}
	case *NodeClock:
		if s.alias.N() != g.N() {
			return nil, fmt.Errorf("sim: node-clock scheduler is built for %d nodes, graph %q has %d",
				s.alias.N(), g.Name(), g.N())
		}
	case *Churn:
		if s.g.N() != g.N() || s.g.M() != g.M() {
			return nil, fmt.Errorf("sim: churn scheduler %q is built for graph %q (n=%d, m=%d), graph %q has n=%d, m=%d",
				s.Name(), s.g.Name(), s.g.N(), s.g.M(), g.Name(), g.N(), g.M())
		}
	}
	if opts.Reference {
		// Forced reference loop: same stream, no specialization.
		return pl, nil
	}
	switch s := sched.(type) {
	case *Weighted:
		pl.mode = modeWeighted
		pl.weighted = s
	case *NodeClock:
		pl.mode = modeNodeClock
		pl.nodeClock = s
	case *Churn:
		// The kernel draws from the scheduler's own graph, as
		// churnSource does; the implicit clique keeps the map path.
		if _, ok := s.g.(*graph.Dense); ok {
			pl.mode = modeChurnUniform
			pl.churn = s
		}
	case nil:
		switch g.(type) {
		case *graph.Dense:
			pl.mode = modeDenseUniform
		case graph.Clique:
			pl.mode = modeCliqueUniform
		}
	}
	return pl, nil
}

// newKernel instantiates the per-run chunk runner; r is available for
// scheduler Begin draws, mirroring the pre-plan Source construction
// point (after Protocol.Reset). p has been Reset, so a Tabular
// protocol's table and live state array are available; fusion is
// decided here (per run, not per plan) because the protocol axis is a
// Run argument, not a Compile one. The second return is the
// dispatch label the flight recorder tallies runs under:
// "<scheduler-engine>/<protocol-engine>", e.g. "dense-uniform/table".
func (pl *ExecPlan) newKernel(p Protocol, r *xrand.Rand) (kernel, string) {
	tp := pl.fusable(p)
	if tp != nil && len(tp.TableStates()) != pl.g.N() {
		tp = nil
	}
	label := planModeNames[pl.mode] + "/step"
	if tp != nil {
		label = planModeNames[pl.mode] + "/table"
	}
	switch pl.mode {
	case modeDenseUniform:
		return newDenseKernel(pl.g.(*graph.Dense), pl.drop, tp), label
	case modeCliqueUniform:
		return newCliqueKernel(pl.g.(graph.Clique), pl.drop, tp), label
	case modeWeighted:
		return newWeightedKernel(pl.weighted, pl.drop, tp), label
	case modeNodeClock:
		return newNodeClockKernel(pl.nodeClock, pl.drop, tp), label
	case modeChurnUniform:
		return newChurnKernel(pl.churn, pl.drop, tp), label
	}
	var src Source = samplerSource{pl.g}
	if pl.sched != nil {
		src = pl.sched.Begin(r)
	}
	return &sourceKernel{src: src, drop: pl.drop}, label
}

// Run resets p on the plan's graph and executes the compiled kernel in
// chunks until the protocol reports a stable configuration or the step
// cap is hit. Observer callbacks fire after the step closing each
// observer interval, including a stabilizing step that lands on a
// boundary — exactly the cadence of the step-at-a-time reference loop.
//
// Metering (Options.Meter) is pure bookkeeping on the control path:
// chunk and observer tallies live in locals, kernel counters in kernel
// fields, and everything is flushed to the meter in one batch per run,
// after the result is decided. A run that panics flushes nothing, so an
// aggregated meter counts exactly the steps of the runs that completed.
func (pl *ExecPlan) Run(p Protocol, r *xrand.Rand) Result {
	p.Reset(pl.g, r)
	if b, ok := pl.observer.(ProtocolBinder); ok {
		b.Bind(p)
	}
	kern, label := pl.newKernel(p, r)
	var t, chunks, observes int64
	for t < pl.maxSteps {
		k := pl.maxSteps - t
		if k > rngBlockSize {
			k = rngBlockSize
		}
		if pl.observer != nil {
			if toBoundary := pl.every - t%pl.every; toBoundary < k {
				k = toBoundary
			}
		}
		done, stabilized := kern.run(p, r, t, k)
		t += done
		chunks++
		if pl.observer != nil && t%pl.every == 0 {
			// A fused machine mutates protocol state behind Step's back;
			// reconcile counters so the observer sees live Leaders/Stable.
			kern.sync()
			pl.observer.Observe(t)
			observes++
		}
		if stabilized {
			kern.finish(r)
			kern.sync()
			pl.flush(kern, label, t, chunks, observes)
			return Result{Steps: t, Stabilized: true, Leader: FindLeader(pl.g, p)}
		}
	}
	kern.finish(r)
	kern.sync()
	pl.flush(kern, label, t, chunks, observes)
	return Result{Steps: pl.maxSteps, Stabilized: false, Leader: -1}
}

// flush hands a completed run's accounting to the meter and closes any
// trajectory-style observer. Called after the kernel has rewound the
// generator and reconciled protocol counters, so finishers read exact
// terminal state; the Result the caller returns is already fixed, and
// nothing here touches r.
func (pl *ExecPlan) flush(kern kernel, label string, steps, chunks, observes int64) {
	if f, ok := pl.observer.(RunFinisher); ok {
		f.Finish(steps)
	}
	if pl.meter != nil {
		refills, drops := kern.stats()
		pl.meter.AddRun(steps, chunks, refills, drops, observes, label)
	}
}
