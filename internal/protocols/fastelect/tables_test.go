package fastelect

import (
	"fmt"
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/epidemic"
	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// crossCase is one graph × parameter set the compiled tables are
// checked on against the hand-written protocol.
type crossCase struct {
	g      graph.Graph
	params Params
}

// crossCases are the two small parameter sets, whose low level caps
// send most nodes through the backup, on small graphs of every shape,
// plus tuned parameters on every graph the table1 benchmark grid runs
// (clique, cycle and 4×N torus at N = 16, 24, 32, and its two
// lollipops).
func crossCases() []crossCase {
	var cases []crossCase
	for _, params := range []Params{{H: 1, L: 2, AlphaL: 3}, {H: 2, L: 3, AlphaL: 5}} {
		for _, g := range []graph.Graph{
			graph.NewClique(12), graph.Cycle(9), graph.Torus2D(3, 4), graph.Star(8), graph.Lollipop(5, 4),
		} {
			cases = append(cases, crossCase{g, params})
		}
	}
	var table1 []graph.Graph
	for _, n := range []int{16, 24, 32} {
		table1 = append(table1, graph.NewClique(n), graph.Cycle(n), graph.Torus2D(4, n))
	}
	table1 = append(table1, graph.Lollipop(16, 16), graph.Lollipop(24, 24))
	for i, g := range table1 {
		b := epidemic.EstimateB(g, xrand.New(uint64(i+1)), epidemic.Options{})
		cases = append(cases, crossCase{g, TunedParams(g, b)})
	}
	return cases
}

// TestTablesMatchProtocol steps the compiled tables (the clocked
// Tabular New returns, through its Step) and the hand-written Protocol
// through one interaction sequence. After every step each node's
// Output, Leaders, Stable and InBackup must agree, and the Tabular's
// gap must equal the hand-written leaders + white tokens − 1. The
// sequence runs on for 200 steps past stabilization, so a stable
// configuration must stay stable on both.
func TestTablesMatchProtocol(t *testing.T) {
	for _, c := range crossCases() {
		for seed := uint64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("%s/%+v/seed%d", c.g.Name(), c.params, seed)
			fused, ok := New(c.params).(*sim.Tabular)
			if !ok {
				t.Fatalf("%s: New returned %T, want *sim.Tabular", name, New(c.params))
			}
			oracle := NewStep(c.params)
			fused.Reset(c.g, nil)
			oracle.Reset(c.g, nil)
			r := xrand.New(seed)
			after := 0
			for step := 0; after < 200; step++ {
				if step > 0 {
					u, v := c.g.SampleEdge(r)
					fused.Step(u, v)
					oracle.Step(u, v)
				}
				for w := 0; w < c.g.N(); w++ {
					if a, b := fused.Output(w), oracle.Output(w); a != b {
						t.Fatalf("%s: step %d: node %d outputs %v, hand-written %v", name, step, w, a, b)
					}
				}
				if fused.Leaders() != oracle.Leaders() || fused.Stable() != oracle.Stable() ||
					fused.InBackup() != oracle.InBackup() {
					t.Fatalf("%s: step %d: leaders/stable/backup %d %v %d, hand-written %d %v %d", name, step,
						fused.Leaders(), fused.Stable(), fused.InBackup(), oracle.Leaders(), oracle.Stable(), oracle.InBackup())
				}
				if want := oracle.Leaders() + oracle.counts.White - 1; fused.Gap() != want {
					t.Fatalf("%s: step %d: gap %d, hand-written leaders + whites − 1 = %d", name, step, fused.Gap(), want)
				}
				if oracle.Stable() {
					after++
				}
				if step > 50_000_000 {
					t.Fatalf("%s: no stabilization in %d steps", name, step)
				}
			}
		}
	}
}

// TestFusedRunsMatchProtocol runs both implementations through the
// default execution plan, where the Tabular is fused into the kernel:
// the Result, the backup count and the generator's post-run state must
// be identical, with and without a drop rate.
func TestFusedRunsMatchProtocol(t *testing.T) {
	for _, c := range crossCases() {
		for _, drop := range []float64{0, 0.1} {
			pl, err := sim.Compile(c.g, sim.Options{DropRate: drop})
			if err != nil {
				t.Fatal(err)
			}
			fused := New(c.params)
			if got := pl.ProtocolEngine(fused); got != "table" {
				t.Fatalf("%s: fast runs %q dispatch, want table", c.g.Name(), got)
			}
			oracle := NewStep(c.params)
			rFused, rOracle := xrand.New(9), xrand.New(9)
			a, b := pl.Run(fused, rFused), pl.Run(oracle, rOracle)
			if a != b || rFused.Save() != rOracle.Save() {
				t.Fatalf("%s/%+v/drop%v: fused %+v, hand-written %+v", c.g.Name(), c.params, drop, a, b)
			}
			if got, want := fused.(backupProtocol).InBackup(), oracle.InBackup(); got != want {
				t.Fatalf("%s/%+v/drop%v: %d nodes in backup, hand-written %d", c.g.Name(), c.params, drop, got, want)
			}
		}
	}
}

// TestNewPicksImplementation — New compiles tables exactly when the
// byte states hold the level cap and the streak clock accepts H, and
// compiles nothing before the first Reset.
func TestNewPicksImplementation(t *testing.T) {
	for _, c := range []struct {
		params Params
		fused  bool
	}{
		{Params{H: 3, L: 5, AlphaL: MaxFusedAlphaL}, true},
		{Params{H: 3, L: 5, AlphaL: MaxFusedAlphaL + 1}, false},
		{Params{H: 60, L: 2, AlphaL: 4}, true},
		{Params{H: 61, L: 2, AlphaL: 4}, false},
	} {
		if _, fused := New(c.params).(*sim.Tabular); fused != c.fused {
			t.Errorf("%+v: New returned %T, want fused=%v", c.params, New(c.params), c.fused)
		}
	}
	if MaxFusedAlphaL != 125 {
		t.Fatalf("MaxFusedAlphaL = %d, want 125", MaxFusedAlphaL)
	}
	// A (L, αL) pair no other test uses: New leaves the cache alone,
	// Reset fills it, and any H shares the entry.
	params := Params{H: 2, L: 7, AlphaL: 97}
	key := [2]int{params.L, params.AlphaL}
	p := New(params).(*sim.Tabular)
	if _, ok := tableCache.Load(key); ok {
		t.Fatal("New compiled its tables before Reset")
	}
	p.Reset(graph.Cycle(5), nil)
	table, tick := Tables(params.L, params.AlphaL)
	if _, ok := tableCache.Load(key); !ok || p.Table() != table || table.K() != 2*params.AlphaL+6 {
		t.Fatal("Reset did not fetch the cached tables")
	}
	other := New(Params{H: 5, L: params.L, AlphaL: params.AlphaL}).(*sim.Tabular)
	other.Reset(graph.Cycle(5), nil)
	if other.Table() != table || table == tick {
		t.Fatal("parameters differing only in H must share one table pair")
	}
	if got := p.TableStates()[0]; p.Table().Role(got) != core.Leader {
		t.Fatalf("initial state %d is no leader", got)
	}
}
