package sim_test

import (
	"testing"

	"popgraph/internal/graph"
	"popgraph/internal/protocols/beauquier"
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

// fuzzProtocol derives a Tabular protocol (and a fresh-instance factory)
// from sel for an n-node graph.
func fuzzProtocol(sel uint64, n int) func() Tabular {
	if sel%2 == 0 {
		return func() Tabular { return beauquier.New() }
	}
	ones := 1 + int(sel>>1)%(n-1)
	if 2*ones == n {
		ones++ // never a tie; ones < n still holds since n >= 3 here
	}
	inputs := make([]bool, n)
	for i := 0; i < ones; i++ {
		inputs[i] = true
	}
	return func() Tabular { return majority.New(inputs) }
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
// small graph, a random Tabular protocol and a random interaction
// script must behave byte-identically whether transitions execute
// through the hand-written Step or through the compiled transition
// table — per-step states and counters under a scripted drive, and
// Results, outputs, counters and post-run generator state under full
// fused vs interface-dispatch vs reference-loop runs, under the uniform
// scheduler or churn. On CSR graphs churn runs the churn-uniform loop,
// checked here against the forced reference loop's map-based source.
func FuzzTableEquivalence(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint16(700), uint8(0), uint8(0))
	f.Add(uint64(1), uint64(2), uint16(513), uint8(1), uint8(0))
	f.Add(uint64(38), uint64(3), uint16(64), uint8(2), uint8(0))
	f.Add(uint64(103), uint64(4), uint16(2000), uint8(3), uint8(0))
	// Churn on cycle, torus and lollipop graphs, six-state and majority,
	// at drop rate 0.2; each run lasts 1000–1700 steps, which at two to
	// three draws per step spans 5–9 blocks of 512 draws.
	f.Add(uint64(29), uint64(9), uint16(2047), uint8(1), uint8(0x21))
	f.Add(uint64(10), uint64(9), uint16(2047), uint8(1), uint8(0x01))
	f.Add(uint64(75), uint64(9), uint16(2047), uint8(1), uint8(0x01))
	f.Add(uint64(1809), uint64(9), uint16(2047), uint8(1), uint8(0x21))
	f.Fuzz(func(t *testing.T, gsel, seed uint64, steps uint16, dropSel, schedSel uint8) {
		g := fuzzGraph(gsel)
		n := g.N()
		factory := fuzzProtocol(gsel>>8, n)
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

		// Part 1: scripted drive. One instance steps through the
		// hand-written transition, the other through TransitionTable.Apply
		// with incrementally maintained counters; every step must agree on
		// states, the leader count and the stability verdict.
		r := xrand.New(seed)
		pStep, pTab := factory(), factory()
		pStep.Reset(g, xrand.New(seed))
		pTab.Reset(g, xrand.New(seed))
		tab := pTab.Table()
		if tab == nil {
			t.Fatal("fuzzed protocol has no table")
		}
		states := pTab.TableStates()
		leaders, gap := tab.Counters(states)
		for i := int64(0); i < script; i++ {
			u, v := g.SampleEdge(r)
			pStep.Step(u, v)
			dl, dg := tab.Apply(states, u, v)
			leaders += dl
			gap += dg
			if leaders != pStep.Leaders() {
				t.Fatalf("step %d (%d,%d): table leaders %d, Step leaders %d", i, u, v, leaders, pStep.Leaders())
			}
			if (gap == 0) != pStep.Stable() {
				t.Fatalf("step %d (%d,%d): table gap %d (stable=%v), Step Stable %v",
					i, u, v, gap, gap == 0, pStep.Stable())
			}
			for w := 0; w < n; w++ {
				if states[w] != pStep.TableStates()[w] {
					t.Fatalf("step %d (%d,%d): node %d state %d (table) vs %d (Step)",
						i, u, v, w, states[w], pStep.TableStates()[w])
				}
			}
		}
		if sl, sg := tab.Counters(states); sl != leaders || sg != gap {
			t.Fatalf("incremental counters (%d,%d) drifted from scan (%d,%d)", leaders, gap, sl, sg)
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
