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
	"sync"

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

// dispatchLabels are the keys the flight recorder tallies runs under,
// "<scheduler-engine>/<protocol-engine>" (e.g. "dense-uniform/table"),
// indexed by mode and by whether the run fused its table. They are built
// once so that a run allocates no label.
var dispatchLabels = func() (l [len(planModeNames)][2]string) {
	for m, name := range planModeNames {
		l[m] = [2]string{name + "/step", name + "/table"}
	}
	return l
}()

// samplerPools keeps idle sampler kernels, one pool per specialized
// mode, so a run reuses a kernel (and its 4 KB prefetch block) instead
// of allocating and zeroing one.
var samplerPools = [len(planModeNames)]sync.Pool{
	modeDenseUniform:  {New: func() any { return new(denseKernel) }},
	modeCliqueUniform: {New: func() any { return new(cliqueKernel) }},
	modeWeighted:      {New: func() any { return new(weightedKernel) }},
	modeNodeClock:     {New: func() any { return new(nodeClockKernel) }},
	modeChurnUniform:  {New: func() any { return new(churnKernel) }},
}

// ExecPlan is a compiled run configuration: the validated (graph,
// scheduler, drop, observer, cap) tuple bound to the specialized kernel
// that will execute it. A plan is immutable and holds no per-run state —
// each Run takes a kernel from a package-level pool, binds it for that
// run alone and returns it unbound — so one plan may drive any number
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
// selects: "table" when p is a *Tabular with a table and the plan
// compiled to a specialized kernel (whose machine then applies the
// table inline); "step" otherwise (Protocol.Step interface dispatch).
// Benchmark reports record it per cell.
func (pl *ExecPlan) ProtocolEngine(p Protocol) string {
	if pl.fusable(p) != nil {
		return "table"
	}
	return "step"
}

// fusable returns p as a *Tabular when this plan would fuse its table
// into the kernel's machine, nil otherwise. Fusion needs a specialized
// scheduler kernel (the generic Source loop keeps interface dispatch),
// no NoTable override, and a Tabular protocol with a table (a clocked
// one fetches its tables on Reset, so it qualifies before it).
func (pl *ExecPlan) fusable(p Protocol) *Tabular {
	if pl.noTable || pl.mode == modeGeneric {
		return nil
	}
	tp, ok := p.(*Tabular)
	if !ok || (tp.table == nil && tp.tables == nil) {
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

// newKernel readies the chunk runner for one run: a pooled sampler
// kernel bound to this plan and p, or a fresh generic loop. r is
// available for scheduler Begin draws, mirroring the pre-plan Source
// construction point (after Protocol.Reset). p has been Reset, so a
// Tabular protocol's state bytes and counters are live; fusion is
// decided here (per run, not per plan) because the protocol axis is a
// Run argument, not a Compile one. The second return is the dispatch
// label the flight recorder tallies the run under.
func (pl *ExecPlan) newKernel(p Protocol, r *xrand.Rand) (kernel, string) {
	tp := pl.fusable(p)
	fused := 0
	if tp != nil {
		fused = 1
	}
	label := dispatchLabels[pl.mode][fused]
	if pl.mode != modeGeneric {
		kn := samplerPools[pl.mode].Get().(sampler)
		kn.attach(pl, tp)
		return kn, label
	}
	var src Source = samplerSource{pl.g}
	if pl.sched != nil {
		src = pl.sched.Begin(r)
	}
	return &sourceKernel{src: src, drop: pl.drop}, label
}

// Run resets p on the plan's graph and executes the compiled kernel in
// chunks until the protocol reports a stable configuration or the step
// cap is hit. Interval observer callbacks fire after the step closing
// each observer interval, including a stabilizing step that lands on a
// boundary — exactly the cadence of the step-at-a-time reference loop —
// bracketed by the t = 0 callback after Reset and the final one.
//
// Metering (Options.Meter) is pure bookkeeping on the control path:
// chunk and observer tallies live in locals, kernel counters in kernel
// fields, and everything is flushed to the meter in one batch per run,
// after the result is decided. A run that panics flushes nothing, so an
// aggregated meter counts exactly the steps of the runs that completed.
//
// A completed run releases its sampler kernel back to the pool after the
// flush; a panicking run never reaches that point, so a kernel left
// mid-run is never reused.
func (pl *ExecPlan) Run(p Protocol, r *xrand.Rand) Result {
	p.Reset(pl.g, r)
	if pl.observer != nil {
		pl.observer.Observe(0, p, false)
	}
	kern, label := pl.newKernel(p, r)
	var t, chunks, observes int64
	stabilized := false
	for t < pl.maxSteps && !stabilized {
		k := pl.maxSteps - t
		if k > rngBlockSize {
			k = rngBlockSize
		}
		if pl.observer != nil {
			if toBoundary := pl.every - t%pl.every; toBoundary < k {
				k = toBoundary
			}
		}
		var done int64
		done, stabilized = kern.run(p, r, t, k)
		t += done
		chunks++
		if pl.observer != nil && t%pl.every == 0 {
			// A fused machine keeps the table counters in the kernel;
			// store them so the observer sees live Leaders/Stable.
			kern.sync()
			pl.observer.Observe(t, p, false)
			observes++
		}
	}
	kern.finish(r)
	kern.sync()
	pl.flush(p, kern, label, t, chunks, observes)
	if kn, ok := kern.(sampler); ok {
		kn.release()
		samplerPools[pl.mode].Put(kn)
	}
	if !stabilized {
		return Result{Steps: t, Leader: -1}
	}
	return Result{Steps: t, Stabilized: true, Leader: FindLeader(pl.g, p)}
}

// flush makes the observer's final callback and hands a completed run's
// accounting to the meter. Called after the kernel has rewound the
// generator and stored the protocol counters, so the observer reads exact
// terminal state; the Result the caller returns is already fixed, and
// nothing here touches r. The meter's observer tally counts interval
// callbacks only.
func (pl *ExecPlan) flush(p Protocol, kern kernel, label string, steps, chunks, observes int64) {
	if pl.observer != nil {
		pl.observer.Observe(steps, p, true)
	}
	if pl.meter != nil {
		refills, drops := kern.stats()
		pl.meter.AddRun(steps, chunks, refills, drops, observes, label)
	}
}
