package sim_test

import (
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/protocols/beauquier"
	"popgraph/internal/protocols/fastelect"
	"popgraph/internal/protocols/majority"
	. "popgraph/internal/sim"
	"popgraph/internal/xrand"
)

// fuzzGraph derives a small connected graph deterministically from sel.
func fuzzGraph(sel uint64) graph.Graph {
	a := int(sel >> 2 % 13)
	b := int(sel >> 6 % 7)
	switch sel % 4 {
	case 0:
		return graph.NewClique(3 + a)
	case 1:
		return graph.Cycle(3 + a)
	case 2:
		return graph.Torus2D(3+a%4, 3+b%4)
	default:
		return graph.Lollipop(3+a%6, 1+b)
	}
}

// tableRef is a test-local reference machine for a Tabular protocol,
// written without its transition table: the initial configuration, the
// pairwise rule, and the leader count and stability verdict of a full
// scan. For the fast protocol, whose state includes the streak clock,
// the reference is instead oracle, the hand-written protocol, compared
// on outputs, Leaders and Stable.
type tableRef struct {
	initial []uint8
	step    func(a, b uint8) (uint8, uint8)
	scan    func(states []uint8) (leaders int, stable bool)
	oracle  Protocol
}

// sixStateRef is the six-state machine: core.TokenTransition, with the
// counts of a core.TokenCounts scan.
func sixStateRef(n int) tableRef {
	initial := make([]uint8, n)
	for v := range initial {
		initial[v] = uint8(core.CandidateBlack)
	}
	return tableRef{
		initial: initial,
		step: func(a, b uint8) (uint8, uint8) {
			na, nb := core.TokenTransition(core.TokenState(a), core.TokenState(b))
			return uint8(na), uint8(nb)
		},
		scan: func(states []uint8) (int, bool) {
			var c core.TokenCounts
			for _, s := range states {
				c.Add(core.TokenState(s), 1)
			}
			return c.Candidates, c.Stable()
		},
	}
}

// majorityRef is the four-state majority machine (0 = weak0, 1 = weak1,
// 2 = strong0, 3 = strong1), rewritten from its rules: opposite strong
// opinions annihilate into weak ones, a strong opinion meeting a weak
// one crosses the edge and converts it. Opinion 1 outputs Leader; the
// configuration is stable once one sign is left.
func majorityRef(inputs []bool) tableRef {
	const w0, w1, s0, s1 = 0, 1, 2, 3
	initial := make([]uint8, len(inputs))
	for v, b := range inputs {
		initial[v] = s0
		if b {
			initial[v] = s1
		}
	}
	return tableRef{
		initial: initial,
		step: func(a, b uint8) (uint8, uint8) {
			switch {
			case a >= s0 && b >= s0 && a != b: // annihilate: weak copies
				return a - 2, b - 2
			case a >= s0 && b < s0: // a's strong opinion moves to b
				return a - 2, a
			case b >= s0 && a < s0:
				return b, b - 2
			}
			return a, b
		},
		scan: func(states []uint8) (int, bool) {
			var c [4]int
			for _, s := range states {
				c[s]++
			}
			ones, zeros := c[w1]+c[s1], c[w0]+c[s0]
			return ones, (zeros == 0 && c[s1] > 0) || (ones == 0 && c[s0] > 0)
		},
	}
}

// fuzzProtocol derives a Tabular protocol factory for an n-node graph,
// with its reference machine: six-state, majority or fast by protoSel,
// majority's input and fast's parameters from sel. Fast gets level caps
// of 2–8, low enough that runs reach the backup.
func fuzzProtocol(sel uint64, protoSel uint8, n int) (func() *Tabular, tableRef) {
	switch protoSel % 3 {
	case 0:
		return beauquier.New, sixStateRef(n)
	case 1:
		ones := 1 + int(sel>>1)%(n-1)
		if 2*ones == n {
			ones++ // never a tie; ones < n still holds since n >= 3 here
		}
		inputs := make([]bool, n)
		for i := 0; i < ones; i++ {
			inputs[i] = true
		}
		return func() *Tabular { return majority.New(inputs) }, majorityRef(inputs)
	}
	l := 1 + int(sel>>2%3)
	params := fastelect.Params{H: 1 + int(sel%3), L: l, AlphaL: l + 1 + int(sel>>4%5)}
	return func() *Tabular { return fastelect.New(params).(*Tabular) }, tableRef{oracle: fastelect.NewStep(params)}
}

// fuzzScheduler derives the run's scheduler from sel: the uniform
// default (nil) for even sel, otherwise churn with burst lengths from
// the higher bits — down to 1:1, where the chain's decay factor 1−a−b
// is −1.
func fuzzScheduler(t *testing.T, sel uint8, g graph.Graph) Scheduler {
	if sel%2 == 0 {
		return nil
	}
	s, err := NewChurn(g, float64(1+sel>>1%16), float64(1+sel>>5))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzTableEquivalence fuzzes the protocol-compilation layer: a random
// small graph, a random Tabular protocol (six-state, majority or the
// clocked fast protocol) and a random interaction script. Under a
// scripted drive, the protocol's Step must match an independent
// reference machine written without tables, state for state (for fast,
// the hand-written protocol, output for output), and its O(1) counters
// must match both the reference's scan and a full
// TransitionTable.Counters scan at every step. Full runs
// must give byte-identical Results, outputs, counters and post-run
// generator state whether the table is fused into the kernel, applied
// through Step on the same kernel, or run by the reference loop, under
// the uniform scheduler or churn. On CSR graphs churn runs the
// churn-uniform loop, checked here against the forced reference loop's
// map-based source.
func FuzzTableEquivalence(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint16(700), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(1), uint64(2), uint16(513), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(38), uint64(3), uint16(64), uint8(2), uint8(0), uint8(0))
	f.Add(uint64(103), uint64(4), uint16(2000), uint8(3), uint8(0), uint8(0))
	// Churn on cycle, torus and lollipop graphs, six-state and majority,
	// at drop rate 0.2; each run lasts 1000–1700 steps, which at two to
	// three draws per step spans 5–9 blocks of 512 draws.
	f.Add(uint64(29), uint64(9), uint16(2047), uint8(1), uint8(0x21), uint8(0))
	f.Add(uint64(10), uint64(9), uint16(2047), uint8(1), uint8(0x01), uint8(0))
	f.Add(uint64(75), uint64(9), uint16(2047), uint8(1), uint8(0x01), uint8(0))
	f.Add(uint64(1809), uint64(9), uint16(2047), uint8(1), uint8(0x21), uint8(1))
	// Fast on a clique, a torus and a lollipop, uniform and churn, with
	// and without drops, at level caps from 2 to 8.
	f.Add(uint64(0), uint64(5), uint16(2047), uint8(0), uint8(0), uint8(2))
	f.Add(uint64(0x1302), uint64(6), uint16(2047), uint8(1), uint8(0x21), uint8(2))
	f.Add(uint64(0x4703), uint64(7), uint16(1500), uint8(0), uint8(0x01), uint8(2))
	f.Add(uint64(0x2c01), uint64(8), uint16(900), uint8(1), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, gsel, seed uint64, steps uint16, dropSel, schedSel, protoSel uint8) {
		g := fuzzGraph(gsel)
		n := g.N()
		factory, ref := fuzzProtocol(gsel>>8, protoSel, n)
		script := int64(steps)%2048 + 1
		sched := fuzzScheduler(t, schedSel, g)
		if _, dense := g.(*graph.Dense); dense && sched != nil {
			pl, err := Compile(g, Options{Scheduler: sched})
			if err != nil {
				t.Fatal(err)
			}
			if engine, proto := pl.Engine(), pl.ProtocolEngine(factory()); engine != "churn-uniform" || proto != "table" {
				t.Fatalf("churn on %s compiled to %s/%s", g.Name(), engine, proto)
			}
		}

		// Part 1: scripted drive. The protocol steps through its table,
		// the reference through its own rule on a plain copy; every step
		// must agree on states, the leader count and the stability
		// verdict, and the counters must equal a full table scan.
		r := xrand.New(seed)
		p := factory()
		p.Reset(g, xrand.New(seed))
		tab := p.Table()
		if tab == nil {
			t.Fatal("fuzzed protocol has no table")
		}
		states := append([]uint8(nil), ref.initial...)
		if ref.oracle != nil {
			ref.oracle.Reset(g, nil)
		}
		for i := int64(0); i <= script; i++ {
			if i > 0 {
				u, v := g.SampleEdge(r)
				p.Step(u, v)
				if ref.oracle != nil {
					ref.oracle.Step(u, v)
				} else {
					states[u], states[v] = ref.step(states[u], states[v])
				}
			}
			if o := ref.oracle; o != nil {
				for w := 0; w < n; w++ {
					if got, want := p.Output(w), o.Output(w); got != want {
						t.Fatalf("step %d: node %d outputs %v, hand-written %v", i, w, got, want)
					}
				}
				if p.Leaders() != o.Leaders() || p.Stable() != o.Stable() {
					t.Fatalf("step %d: Leaders %d Stable %v, hand-written %d %v",
						i, p.Leaders(), p.Stable(), o.Leaders(), o.Stable())
				}
			} else {
				for w := 0; w < n; w++ {
					if got := p.TableStates()[w]; got != states[w] {
						t.Fatalf("step %d: node %d state %d, reference %d", i, w, got, states[w])
					}
				}
				if leaders, stable := ref.scan(states); p.Leaders() != leaders || p.Stable() != stable {
					t.Fatalf("step %d: Leaders %d Stable %v, reference scan %d %v",
						i, p.Leaders(), p.Stable(), leaders, stable)
				}
			}
			if leaders, gap := tab.Counters(p.TableStates()); p.Leaders() != leaders || p.Stable() != (gap == 0) {
				t.Fatalf("step %d: Leaders %d Stable %v, table scan leaders %d gap %d",
					i, p.Leaders(), p.Stable(), leaders, gap)
			}
		}

		// Part 2: full runs through the execution plans. The fused table
		// kernel, the interface-dispatch kernel on the same scheduler loop
		// (NoTable) and the generic reference loop must agree on the
		// Result, every output, the O(1) counters (cross-checked against a
		// scan) and the generator's post-run position.
		drop := float64(dropSel%4) * 0.2
		type outcome struct {
			res     Result
			outputs []int
			leaders int
			stable  bool
			draws   [8]uint64
		}
		runVariant := func(noTable, reference bool) outcome {
			p := factory()
			rr := xrand.New(seed)
			res := Run(g, p, rr, Options{
				MaxSteps:  script,
				Scheduler: sched,
				DropRate:  drop,
				NoTable:   noTable,
				Reference: reference,
			})
			o := outcome{res: res, leaders: p.Leaders(), stable: p.Stable()}
			for v := 0; v < n; v++ {
				o.outputs = append(o.outputs, int(p.Output(v)))
			}
			if scan := CountLeaders(g, p); scan != o.leaders {
				t.Fatalf("noTable=%v reference=%v: Leaders() %d != scan %d", noTable, reference, o.leaders, scan)
			}
			for i := range o.draws {
				o.draws[i] = rr.Uint64()
			}
			return o
		}
		fused := runVariant(false, false)
		for _, v := range []outcome{runVariant(true, false), runVariant(false, true)} {
			if v.res != fused.res || v.leaders != fused.leaders || v.stable != fused.stable || v.draws != fused.draws {
				t.Fatalf("variants diverged: fused %+v vs %+v", fused, v)
			}
			for w := range v.outputs {
				if v.outputs[w] != fused.outputs[w] {
					t.Fatalf("node %d output diverged: fused %d vs %d", w, fused.outputs[w], v.outputs[w])
				}
			}
		}
	})
}
