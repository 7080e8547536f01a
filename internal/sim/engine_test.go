package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"popgraph/internal/graph"
	"popgraph/internal/protocols/beauquier"
	"popgraph/internal/protocols/fastelect"
	"popgraph/internal/protocols/idelect"
	"popgraph/internal/protocols/majority"
	"popgraph/internal/protocols/star"
	. "popgraph/internal/sim"
	"popgraph/internal/snapshot"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// equivalenceCase is one graph × protocol pair checked for byte-identical
// behaviour between the specialized and generic loops.
type equivalenceCase struct {
	g   graph.Graph
	p   func() Protocol
	tag string
}

func equivalenceCases() []equivalenceCase {
	six := func() Protocol { return beauquier.New() }
	id := func() Protocol { return idelect.New() }
	graphs := []graph.Graph{
		graph.NewClique(2),
		graph.NewClique(33), // odd n exercises the Lemire rejection path
		graph.Cycle(17),
		graph.Star(9),
		graph.Torus2D(3, 5),
		graph.Lollipop(6, 5),
		graph.Path(2),
	}
	var cases []equivalenceCase
	for _, g := range graphs {
		cases = append(cases,
			equivalenceCase{g, six, g.Name() + "/six-state"},
			equivalenceCase{g, id, g.Name() + "/identifier"},
		)
	}
	// Fast protocol on one Dense graph and the clique: its Reset draws
	// randomness, checking the Reset-then-block-sampling boundary.
	fastFor := func(g graph.Graph) func() Protocol {
		params := fastelect.TunedParams(g, 8*float64(g.N()))
		return func() Protocol { return fastelect.New(params) }
	}
	for _, g := range []graph.Graph{graph.NewClique(16), graph.Torus2D(3, 4)} {
		cases = append(cases, equivalenceCase{g, fastFor(g), g.Name() + "/fast"})
	}
	return cases
}

// TestEngineEquivalence is the determinism guarantee of the specialized
// loops: for the same seed they must produce a byte-identical Result AND
// leave the generator at the byte-identical stream position as the
// generic EdgeSampler loop (which an explicit Options.Sampler forces).
func TestEngineEquivalence(t *testing.T) {
	// Step caps around the prefetch block size (512) exercise rewinds of
	// a partial block, an exact block boundary, and multiple refills; 0
	// uses the default cap so most runs end by stabilizing instead.
	caps := []int64{100, 511, 512, 513, 2000, 0}
	for _, c := range equivalenceCases() {
		for _, maxSteps := range caps {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/cap%d/seed%d", c.tag, maxSteps, seed)
				rFast := xrand.New(seed)
				rGen := xrand.New(seed)
				fast := Run(c.g, c.p(), rFast, Options{MaxSteps: maxSteps})
				gen := Run(c.g, c.p(), rGen, Options{MaxSteps: maxSteps, Sampler: c.g})
				if fast != gen {
					t.Fatalf("%s: results diverged: specialized %+v, generic %+v", name, fast, gen)
				}
				for i := 0; i < 16; i++ {
					if a, b := rFast.Uint64(), rGen.Uint64(); a != b {
						t.Fatalf("%s: post-run RNG stream diverged at draw %d: %d != %d",
							name, i, a, b)
					}
				}
			}
		}
	}
}

// TestEngineSequentialRuns reuses one generator across consecutive runs:
// the rewind at the end of a specialized run must leave the stream
// position exactly where the generic loop would, so later runs agree too.
func TestEngineSequentialRuns(t *testing.T) {
	g := graph.Torus2D(3, 4)
	rFast := xrand.New(77)
	rGen := xrand.New(77)
	for round := 0; round < 4; round++ {
		fast := Run(g, beauquier.New(), rFast, Options{MaxSteps: 300})
		gen := Run(g, beauquier.New(), rGen, Options{MaxSteps: 300, Sampler: g})
		if fast != gen {
			t.Fatalf("round %d: %+v != %+v", round, fast, gen)
		}
	}
}

// TestEngineObserverAndDropOnFastPath — instrumented runs now stay on
// the specialized kernels (observers are chunk boundaries, drops are
// prefetched block draws); the observable behaviour must be unchanged —
// an every-step observer sees every step, drop-rate runs stabilize.
func TestEngineObserverAndDropOnFastPath(t *testing.T) {
	g := graph.NewClique(12)
	obs := &countingObserver{}
	res := Run(g, beauquier.New(), xrand.New(5), Options{Observer: obs, ObserveEvery: 1})
	if !res.Stabilized || int64(obs.calls) != res.Steps {
		t.Fatalf("observer saw %d of %d steps", obs.calls, res.Steps)
	}
	res = Run(g, beauquier.New(), xrand.New(5), Options{DropRate: 0.5})
	if !res.Stabilized {
		t.Fatal("drop-rate run did not stabilize")
	}
}

// recordingObserver captures the callback cadence and, through the
// protocol's O(1) leader counter, the protocol state visible at each
// callback — so equivalence checks catch a kernel that applies steps in
// the right order but observes at the wrong moment.
type recordingObserver struct {
	p       Protocol
	ts      []int64
	leaders []int
}

func (o *recordingObserver) Observe(t int64) {
	o.ts = append(o.ts, t)
	o.leaders = append(o.leaders, o.p.Leaders())
}

func (o *recordingObserver) equal(other *recordingObserver) bool {
	if len(o.ts) != len(other.ts) {
		return false
	}
	for i := range o.ts {
		if o.ts[i] != other.ts[i] || o.leaders[i] != other.leaders[i] {
			return false
		}
	}
	return true
}

// referenceRun is an independent step-at-a-time loop implementing the
// run semantics from first principles — one Source.Next per step, a
// live Float64 drop draw after each delivered contact, observer on
// every multiple of the interval, stabilization checked after every
// step. It deliberately shares no code with plan.go or engine.go: it is
// the meaning the compiled kernels must reproduce byte for byte.
func referenceRun(g graph.Graph, p Protocol, r *xrand.Rand, opts Options) Result {
	p.Reset(g, r)
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps(g.N())
	}
	every := opts.ObserveEvery
	if every <= 0 {
		every = 1
	}
	var src Source
	if opts.Scheduler == nil {
		src = Uniform{G: g}.Begin(r)
	} else {
		src = opts.Scheduler.Begin(r)
	}
	for t := int64(1); t <= maxSteps; t++ {
		u, v, ok := src.Next(t, r)
		if ok && (opts.DropRate == 0 || r.Float64() >= opts.DropRate) {
			p.Step(u, v)
		}
		if opts.Observer != nil && t%every == 0 {
			opts.Observer.Observe(t)
		}
		if p.Stable() {
			return Result{Steps: t, Stabilized: true, Leader: FindLeader(g, p)}
		}
	}
	return Result{Steps: maxSteps, Stabilized: false, Leader: -1}
}

// TestPlanEquivalenceMatrix is the determinism contract of the compiled
// execution plans, now with a protocol axis: for every protocol ×
// scheduler × drop × observer combination on every kernel-eligible
// graph shape, the specialized kernel (fused with the protocol's
// transition table when it is Tabular), the interface-dispatch kernel
// (Options.NoTable), the forced reference kernel (Options.Reference)
// and the independent step-at-a-time loop above must produce
// byte-identical Results, identical observer callback sequences (times
// and visible state), and leave the generator at the byte-identical
// stream position.
func TestPlanEquivalenceMatrix(t *testing.T) {
	schedCases := []struct {
		tag   string
		build func(g graph.Graph) Scheduler
	}{
		{"uniform", func(graph.Graph) Scheduler { return nil }},
		{"weighted", func(g graph.Graph) Scheduler {
			rates := make([]float64, g.M())
			for i := range rates {
				rates[i] = float64(1 + i%7)
			}
			s, err := NewWeighted(g, "weighted:ramp", rates)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"node-clock", func(g graph.Graph) Scheduler {
			s, err := NewNodeClock(g)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"churn", func(g graph.Graph) Scheduler {
			s, err := NewChurn(g, 16, 4)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	// The protocol axis. six-state is the primary (Tabular) protocol and
	// sweeps the full cap × observer × seed grid; majority (Tabular, a
	// different table and counter functional per input sign) and the
	// star protocol (Tabular, star graphs only) ride a trimmed grid —
	// full scheduler × drop coverage, fewer caps/observer cadences — to
	// keep the matrix fast. Options.NoTable doubles as the interface-
	// dispatch control for every Tabular protocol.
	protoCases := []struct {
		tag     string
		make    func(g graph.Graph) func() Protocol
		on      func(g graph.Graph) bool
		caps    []int64
		everies []int64
		seeds   uint64
	}{
		{
			tag:  "six-state",
			make: func(graph.Graph) func() Protocol { return func() Protocol { return beauquier.New() } },
			on:   func(graph.Graph) bool { return true },
			// Caps around the prefetch block size exercise partial-block
			// rewinds and multi-block runs; 0 (the default cap) lets runs
			// end by stabilizing, checking the early-exit paths.
			caps:    []int64{511, 4000, 0},
			everies: []int64{-1, 1, 7, 512}, // -1 = no observer
			seeds:   2,
		},
		{
			tag: "majority",
			make: func(g graph.Graph) func() Protocol {
				inputs := make([]bool, g.N())
				for i := 0; i <= g.N()/2; i++ {
					inputs[i] = true // strict majority of ones for any n
				}
				return func() Protocol { return majority.New(inputs) }
			},
			on:      func(graph.Graph) bool { return true },
			caps:    []int64{511, 0},
			everies: []int64{-1, 7},
			seeds:   1,
		},
		{
			tag:  "star",
			make: func(graph.Graph) func() Protocol { return func() Protocol { return star.New() } },
			on: func(g graph.Graph) bool {
				return g.N() >= 3 && graph.MaxDegree(g) == g.N()-1 && g.M() == g.N()-1
			},
			caps:    []int64{511, 0},
			everies: []int64{-1, 7},
			seeds:   1,
		},
	}
	graphs := []graph.Graph{
		graph.Torus2D(4, 5),  // CSR: dense-uniform / weighted / node-clock kernels
		graph.NewClique(23),  // implicit: clique-uniform kernel, odd n rejection path
		graph.Lollipop(6, 5), // skewed degrees for the node-clock neighbor draw
		graph.Star(10),       // the star protocol's home turf, CSR shape
	}
	drops := []float64{0, 0.3}
	for _, g := range graphs {
		// Snapshot source axis: Dense graphs get a twin revived from the
		// binary container (encode → decode in memory). The twin must be
		// byte-identical to the original in every run below — same
		// Result, observer sequence and post-run RNG position — which is
		// the determinism contract ParseGraph's file: specs rely on. The
		// implicit clique has no CSR to serialize and is excluded
		// (materializing it changes the kernel, documented in
		// snapshot.Build).
		var snapG graph.Graph
		if _, ok := g.(*graph.Dense); ok {
			snap, err := snapshot.Build(g, "test:"+g.Name())
			if err != nil {
				t.Fatal(err)
			}
			data, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := snapshot.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			snapG = loaded.Graph
		}
		for _, pc := range protoCases {
			if !pc.on(g) {
				continue
			}
			factory := pc.make(g)
			var snapFactory func() Protocol
			if snapG != nil {
				snapFactory = pc.make(snapG)
			}
			for _, sc := range schedCases {
				sched := sc.build(g)
				var snapSched Scheduler
				if snapG != nil {
					snapSched = sc.build(snapG)
				}
				for _, drop := range drops {
					for _, maxSteps := range pc.caps {
						for _, every := range pc.everies {
							for seed := uint64(1); seed <= pc.seeds; seed++ {
								name := fmt.Sprintf("%s/%s/%s/drop%v/cap%d/every%d/seed%d",
									g.Name(), pc.tag, sc.tag, drop, maxSteps, every, seed)
								type variant struct {
									res   Result
									r     *xrand.Rand
									post  xrand.State // generator state right after the run
									obs   *recordingObserver
									meter *telemetry.Counters
								}
								runVariant := func(ref, forceGeneric, noTable, metered bool) variant {
									r := xrand.New(seed)
									p := factory()
									opts := Options{
										MaxSteps:  maxSteps,
										Scheduler: sched,
										DropRate:  drop,
										Reference: forceGeneric,
										NoTable:   noTable,
									}
									var meter *telemetry.Counters
									if metered {
										meter = new(telemetry.Counters)
										opts.Meter = meter
									}
									var obs *recordingObserver
									if every > 0 {
										obs = &recordingObserver{p: p}
										opts.Observer = obs
										opts.ObserveEvery = every
									}
									var res Result
									if ref {
										res = referenceRun(g, p, r, opts)
									} else {
										res = Run(g, p, r, opts)
									}
									return variant{res: res, r: r, post: r.Save(), obs: obs, meter: meter}
								}
								want := runVariant(true, false, false, false)
								var wantDraws [16]uint64
								for i := range wantDraws {
									wantDraws[i] = want.r.Uint64()
								}
								// Each plan variant runs bare and metered: the
								// telemetry axis must be invisible to results,
								// observers and the random stream.
								variants := []variant{
									runVariant(false, false, false, false), // fused table kernel (when Tabular)
									runVariant(false, false, false, true),  // ... with flight recorder attached
									runVariant(false, false, true, false),  // same scheduler kernel, Step dispatch
									runVariant(false, false, true, true),
									runVariant(false, true, false, false), // generic reference kernel
									runVariant(false, true, false, true),
								}
								for _, v := range variants {
									if v.res != want.res {
										t.Fatalf("%s: results diverged: plan %+v, reference %+v", name, v.res, want.res)
									}
									if every > 0 && !v.obs.equal(want.obs) {
										t.Fatalf("%s: observer sequences diverged:\nplan %v %v\nref  %v %v",
											name, v.obs.ts, v.obs.leaders, want.obs.ts, want.obs.leaders)
									}
									for i, b := range wantDraws {
										if a := v.r.Uint64(); a != b {
											t.Fatalf("%s: post-run RNG stream diverged at draw %d", name, i)
										}
									}
									if v.meter == nil {
										continue
									}
									// The flushed accounting must agree exactly
									// with the run the meter watched.
									s := v.meter.Snapshot()
									if s.StepsExecuted != v.res.Steps {
										t.Fatalf("%s: meter counted %d steps, run took %d", name, s.StepsExecuted, v.res.Steps)
									}
									if wantObs := int64(0); every > 0 {
										wantObs = int64(len(v.obs.ts))
										if s.ObserverCalls != wantObs {
											t.Fatalf("%s: meter counted %d observer calls, want %d", name, s.ObserverCalls, wantObs)
										}
									} else if s.ObserverCalls != 0 {
										t.Fatalf("%s: meter counted %d observer calls with no observer", name, s.ObserverCalls)
									}
									if drop == 0 && s.DropsApplied != 0 {
										t.Fatalf("%s: meter counted %d drops at drop rate 0", name, s.DropsApplied)
									}
									if drop > 0 && v.res.Steps > 100 && s.DropsApplied == 0 {
										t.Fatalf("%s: meter counted no drops over %d steps at drop rate %v", name, v.res.Steps, drop)
									}
									var runs int64
									generic := false
									for label, c := range s.KernelDispatch {
										runs += c
										generic = strings.HasPrefix(label, "generic/")
									}
									if runs != 1 || s.ChunksRun == 0 {
										t.Fatalf("%s: dispatch/chunk accounting off: %+v", name, s)
									}
									if generic {
										continue
									}
									// The specialized kernels keep both counters in
									// the shared machine: drops must match the
									// reference loop's, and refills must be exactly
									// the blocks the consumed draws span.
									if ref := variants[len(variants)-1].meter.Snapshot(); s.DropsApplied != ref.DropsApplied {
										t.Fatalf("%s: meter counted %d drops, reference plan %d", name, s.DropsApplied, ref.DropsApplied)
									}
									if want := (drawsConsumed(t, seed, v.post) + prefetchBlock - 1) / prefetchBlock; s.RNGRefills != want {
										t.Fatalf("%s: meter counted %d RNG refills, consumed draws span %d blocks", name, s.RNGRefills, want)
									}
								}
								// Snapshot axis: the revived twin replays the
								// reference run exactly, through the default
								// plan selection (fused kernels included).
								if snapG != nil {
									r := xrand.New(seed)
									p := snapFactory()
									opts := Options{
										MaxSteps:  maxSteps,
										Scheduler: snapSched,
										DropRate:  drop,
									}
									var obs *recordingObserver
									if every > 0 {
										obs = &recordingObserver{p: p}
										opts.Observer = obs
										opts.ObserveEvery = every
									}
									res := Run(snapG, p, r, opts)
									if res != want.res {
										t.Fatalf("%s: snapshot-loaded run diverged: %+v, reference %+v", name, res, want.res)
									}
									if every > 0 && !obs.equal(want.obs) {
										t.Fatalf("%s: snapshot-loaded observer sequence diverged", name)
									}
									for i, b := range wantDraws {
										if a := r.Uint64(); a != b {
											t.Fatalf("%s: snapshot-loaded post-run RNG stream diverged at draw %d", name, i)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// prefetchBlock is the specialized kernels' RNG refill size (the
// unexported rngBlockSize).
const prefetchBlock = 512

// drawsConsumed returns how many Uint64 draws take a fresh generator
// seeded with seed to state post.
func drawsConsumed(t *testing.T, seed uint64, post xrand.State) int64 {
	t.Helper()
	r := xrand.New(seed)
	for d := int64(0); d < 1<<26; d++ {
		if r.Save() == post {
			return d
		}
		r.Uint64()
	}
	t.Fatalf("seed %d: post-run generator state not reached within 2^26 draws", seed)
	return 0
}

func TestOrderedPairMatchesSampleEdge(t *testing.T) {
	g := graph.Lollipop(5, 4)
	a := xrand.New(123)
	b := xrand.New(123)
	for i := 0; i < 2000; i++ {
		u1, v1 := g.SampleEdge(a)
		u2, v2 := g.OrderedPair(b.Uintn(uint64(2 * g.M())))
		if u1 != u2 || v1 != v2 {
			t.Fatalf("draw %d: SampleEdge (%d,%d) != OrderedPair (%d,%d)", i, u1, v1, u2, v2)
		}
	}
}
