package sim_test

import (
	"math"
	"strings"
	"testing"

	"popgraph/internal/graph"
	"popgraph/internal/protocols/beauquier"
	"popgraph/internal/protocols/fastelect"
	"popgraph/internal/protocols/idelect"
	"popgraph/internal/protocols/majority"
	. "popgraph/internal/sim"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// raceEnabled reports a -race build (set by race_test.go).
var raceEnabled bool

// TestCompileValidation — every input the old Run panicked on — and the
// scheduler/graph mismatches it silently accepted — must come back as a
// compile error naming the problem.
func TestCompileValidation(t *testing.T) {
	g := graph.Torus2D(3, 4)
	weightedFor := func(h graph.Graph) Scheduler {
		rates := make([]float64, h.M())
		for i := range rates {
			rates[i] = 1
		}
		s, err := NewWeighted(h, "w", rates)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	nodeClockFor := func(h graph.Graph) Scheduler {
		s, err := NewNodeClock(h)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	churnFor := func(h graph.Graph) Scheduler {
		s, err := NewChurn(h, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	single, err := graph.NewDense(1, nil, "single")
	if err != nil {
		t.Fatalf("1-node graph rejected by constructor: %v", err)
	}
	cases := []struct {
		name string
		g    graph.Graph
		opts Options
		want string // substring of the error
	}{
		{"nil-graph", nil, Options{}, "nil graph"},
		{"tiny-graph", single, Options{}, "too small"},
		{"drop-one", g, Options{DropRate: 1}, "drop rate"},
		{"drop-negative", g, Options{DropRate: -0.1}, "drop rate"},
		{"drop-nan", g, Options{DropRate: math.NaN()}, "drop rate"},
		{"weighted-wrong-graph", g, Options{Scheduler: weightedFor(graph.Path(3))}, "built for"},
		{"node-clock-wrong-graph", g, Options{Scheduler: nodeClockFor(graph.Path(3))}, "built for"},
		// Binding checks must hold on the reference and sampler paths
		// too: a forced-generic run would otherwise feed out-of-range
		// node ids from the mismatched scheduler straight to the protocol.
		{"weighted-wrong-graph-reference", g, Options{Scheduler: weightedFor(graph.Path(3)), Reference: true}, "built for"},
		{"node-clock-wrong-graph-reference", g, Options{Scheduler: nodeClockFor(graph.Path(3)), Reference: true}, "built for"},
		// A churn scheduler draws from its own graph: one built for a
		// bigger graph would hand the protocol node ids past n.
		{"churn-wrong-graph", graph.Cycle(10), Options{Scheduler: churnFor(graph.Torus2D(4, 5))}, "built for"},
		{"churn-wrong-graph-reference", graph.Cycle(10), Options{Scheduler: churnFor(graph.Torus2D(4, 5)), Reference: true}, "built for"},
		{"churn-wrong-edge-count", graph.Cycle(12), Options{Scheduler: churnFor(g)}, "built for"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Compile(c.g, c.opts); err == nil {
				t.Fatalf("Compile accepted %+v", c.opts)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if _, err := RunE(c.g, beauquier.New(), xrand.New(1), c.opts); err == nil {
				t.Fatal("RunE accepted what Compile rejected")
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("Run did not panic on what Compile rejected")
					}
				}()
				Run(c.g, beauquier.New(), xrand.New(1), c.opts)
			}()
		})
	}
}

// TestCompileEngineSelection — the plan must pick the specialized kernel
// whenever one exists for the scheduler × graph shape — regardless of
// observers and drop rates, which no longer force the generic loop —
// and fall back to the generic reference kernel for churn on the
// implicit clique and for forced-reference runs.
func TestCompileEngineSelection(t *testing.T) {
	torus := graph.Torus2D(3, 4)
	clique := graph.NewClique(8)
	weighted, err := NewWeighted(torus, "w", func() []float64 {
		r := make([]float64, torus.M())
		for i := range r {
			r[i] = float64(i + 1)
		}
		return r
	}())
	if err != nil {
		t.Fatal(err)
	}
	nodeClock, err := NewNodeClock(torus)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := NewChurn(torus, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cliqueChurn, err := NewChurn(clique, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	cases := []struct {
		name string
		g    graph.Graph
		opts Options
		want string
	}{
		{"dense-uniform", torus, Options{}, "dense-uniform"},
		{"clique-uniform", clique, Options{}, "clique-uniform"},
		{"explicit-uniform", torus, Options{Scheduler: Uniform{}}, "dense-uniform"},
		{"dense-with-drop", torus, Options{DropRate: 0.5}, "dense-uniform"},
		{"dense-with-observer", torus, Options{Observer: obs, ObserveEvery: 3}, "dense-uniform"},
		{"weighted", torus, Options{Scheduler: weighted}, "weighted"},
		{"weighted-drop-observer", torus, Options{Scheduler: weighted, DropRate: 0.2, Observer: obs}, "weighted"},
		{"node-clock", torus, Options{Scheduler: nodeClock}, "node-clock"},
		{"churn-uniform", torus, Options{Scheduler: churn}, "churn-uniform"},
		{"churn-drop-observer", torus, Options{Scheduler: churn, DropRate: 0.2, Observer: obs}, "churn-uniform"},
		{"churn-clique-is-generic", clique, Options{Scheduler: cliqueChurn}, "generic"},
		{"reference-forces-generic", torus, Options{Reference: true}, "generic"},
		{"reference-weighted", torus, Options{Scheduler: weighted, Reference: true}, "generic"},
		{"reference-churn", torus, Options{Scheduler: churn, Reference: true}, "generic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl, err := Compile(c.g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if pl.Engine() != c.want {
				t.Fatalf("engine %q, want %q", pl.Engine(), c.want)
			}
		})
	}
}

// TestProtocolEngineSelection — the protocol axis of kernel selection.
// A Tabular protocol fuses into the table variant of every specialized
// scheduler kernel, churn-uniform included; Options.NoTable, the generic
// kernel (Reference, clique churn) and non-Tabular protocols keep Step
// dispatch.
func TestProtocolEngineSelection(t *testing.T) {
	torus := graph.Torus2D(3, 4)
	clique := graph.NewClique(8)
	churn, err := NewChurn(torus, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cliqueChurn, err := NewChurn(clique, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	nodeClock, err := NewNodeClock(torus)
	if err != nil {
		t.Fatal(err)
	}
	six := beauquier.New()
	cases := []struct {
		name string
		g    graph.Graph
		opts Options
		p    Protocol
		want string
	}{
		{"six-state-dense", torus, Options{}, six, "table"},
		{"six-state-clique", clique, Options{}, six, "table"},
		{"six-state-node-clock", torus, Options{Scheduler: nodeClock}, six, "table"},
		{"no-table-forces-step", torus, Options{NoTable: true}, six, "step"},
		{"reference-forces-step", torus, Options{Reference: true}, six, "step"},
		{"six-state-churn", torus, Options{Scheduler: churn}, six, "table"},
		{"churn-no-table-forces-step", torus, Options{Scheduler: churn, NoTable: true}, six, "step"},
		{"churn-reference-forces-step", torus, Options{Scheduler: churn, Reference: true}, six, "step"},
		{"churn-clique-is-step", clique, Options{Scheduler: cliqueChurn}, six, "step"},
		{"non-tabular-protocol", torus, Options{}, idelect.New(), "step"},
		{"tie-majority-has-no-table", torus, Options{},
			majority.New(append(make([]bool, 6), true, true, true, true, true, true)), "step"},
		{"majority-dense", torus, Options{},
			majority.New(append(make([]bool, 5), true, true, true, true, true, true, true)), "table"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl, err := Compile(c.g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := pl.ProtocolEngine(c.p); got != c.want {
				t.Fatalf("protocol engine %q, want %q", got, c.want)
			}
		})
	}
}

// TestPlanMaxStepsResolution — the compiled plan resolves the default
// cap once, at compile time.
func TestPlanMaxStepsResolution(t *testing.T) {
	g := graph.NewClique(16)
	pl, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.MaxSteps() != DefaultMaxSteps(16) {
		t.Fatalf("default cap %d, want %d", pl.MaxSteps(), DefaultMaxSteps(16))
	}
	pl, err = Compile(g, Options{MaxSteps: 123})
	if err != nil {
		t.Fatal(err)
	}
	if pl.MaxSteps() != 123 {
		t.Fatalf("explicit cap %d, want 123", pl.MaxSteps())
	}
}

// TestPlanIsReusable — a plan holds no per-run state — repeated Run
// calls from the same seed replay identically, including for schedulers
// with per-run mutable sources (churn) and for runs sharing one
// generator sequentially.
func TestPlanIsReusable(t *testing.T) {
	g := graph.Torus2D(3, 4)
	churn, err := NewChurn(g, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{MaxSteps: 2000},
		{MaxSteps: 2000, Scheduler: churn, DropRate: 0.1},
	} {
		pl, err := Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		a := pl.Run(beauquier.New(), xrand.New(9))
		b := pl.Run(beauquier.New(), xrand.New(9))
		if a != b {
			t.Fatalf("engine %s: same-seed runs diverged: %+v vs %+v", pl.Engine(), a, b)
		}
		// One generator across consecutive runs: the rewind at the end of
		// each run must leave the stream exactly where the reference loop
		// would, so later runs agree too.
		rPlan, rRef := xrand.New(31), xrand.New(31)
		for round := 0; round < 3; round++ {
			refOpts := opts
			refOpts.Reference = true
			pr := pl.Run(beauquier.New(), rPlan)
			rr := Run(g, beauquier.New(), rRef, refOpts)
			if pr != rr {
				t.Fatalf("engine %s round %d: %+v != %+v", pl.Engine(), round, pr, rr)
			}
		}
	}
}

// TestWarmRunAllocations pins the per-run allocation count of a warmed
// plan: the sampler kernel, its prefetch block and the dispatch label
// are reused, so the only allocation left is Tabular.Reset's fresh
// per-node array — the state bytes, and for the clocked fast protocol
// the state and streak bytes in one block; its tables were fetched on
// the first Reset. The race detector makes sync.Pool drop items at
// random, so the count is meaningless under -race.
func TestWarmRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, g := range []graph.Graph{graph.Torus2D(4, 4), graph.NewClique(16)} {
		pl, err := Compile(g, Options{Meter: new(telemetry.Counters)})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Protocol{beauquier.New(), fastelect.New(fastelect.Params{H: 2, L: 3, AlphaL: 5})} {
			if pl.ProtocolEngine(p) != "table" {
				t.Fatalf("%s: %s is not fused", g.Name(), p.Name())
			}
			r := xrand.New(3)
			if got := testing.AllocsPerRun(200, func() { pl.Run(p, r) }); got > 1 {
				t.Errorf("%s: a warmed %s run allocates %v times, want at most 1 (the per-node bytes)", g.Name(), p.Name(), got)
			}
		}
	}
}
