package sim_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
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
	// Fast protocol, a clocked Tabular, on one Dense graph and the
	// clique: the fused streak clock against the reference loop's Step.
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
// generic reference loop (which Options.Reference forces).
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
				gen := Run(c.g, c.p(), rGen, Options{MaxSteps: maxSteps, Reference: true})
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
		gen := Run(g, beauquier.New(), rGen, Options{MaxSteps: 300, Reference: true})
		if fast != gen {
			t.Fatalf("round %d: %+v != %+v", round, fast, gen)
		}
	}
}

// panicAt wraps a protocol whose Step panics on its at-th call, so the
// run dies mid-chunk with its kernel's cursor, tallies and binding
// wherever the panic found them. Being no *Tabular, it runs under Step
// dispatch.
type panicAt struct {
	Protocol
	at, calls int
}

func (p *panicAt) Step(u, v int) {
	if p.calls++; p.calls == p.at {
		panic("panicAt: injected failure")
	}
	p.Protocol.Step(u, v)
}

// reuseOutcome is everything a run shows outside: its Result (or panic),
// observer sequence, post-run generator state and meter tallies.
type reuseOutcome struct {
	res      Result
	panicked any
	post     xrand.State
	obs      *recordingObserver
	steps    int64
	refills  int64
	drops    int64
	dispatch string
}

func (o reuseOutcome) equal(other reuseOutcome) bool {
	if o.res != other.res || (o.panicked == nil) != (other.panicked == nil) || o.post != other.post ||
		o.steps != other.steps || o.refills != other.refills || o.drops != other.drops || o.dispatch != other.dispatch {
		return false
	}
	return (o.obs == nil) == (other.obs == nil) && (o.obs == nil || o.obs.equal(other.obs))
}

// TestKernelReuse is the reuse axis of the determinism contract. Plans
// take their sampler kernels from per-mode pools, so one kernel serves
// run after run on a goroutine. A mixed sequence of cases — all five
// sampler kernels on two graph sizes each, six-state and the clocked
// fast protocol with table and Step dispatch, majority, drop rates 0
// and 0.1, observer on and off, a capped run and a run whose protocol
// panics in Step — runs forward and then reversed, so every case runs
// on kernels left behind by different predecessors (fast after
// six-state and six-state after fast among them). Every run must equal the reference loop (Result,
// observer sequence, post-run generator state, drops, and refills
// matching the draws it consumed), and the reversed pass, then four
// concurrent passes, must repeat the forward pass exactly, meter tallies
// included.
func TestKernelReuse(t *testing.T) {
	type kernelCase struct {
		engine string
		graphs []graph.Graph
		sched  func(g graph.Graph) Scheduler
	}
	must := func(s Scheduler, err error) Scheduler {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	csr := []graph.Graph{graph.Torus2D(4, 5), graph.Lollipop(6, 5)}
	kernels := []kernelCase{
		{"dense-uniform", csr, func(graph.Graph) Scheduler { return nil }},
		{"clique-uniform", []graph.Graph{graph.NewClique(23), graph.NewClique(8)}, func(graph.Graph) Scheduler { return nil }},
		{"weighted", csr, func(g graph.Graph) Scheduler {
			rates := make([]float64, g.M())
			for i := range rates {
				rates[i] = float64(1 + i%5)
			}
			return must(NewWeighted(g, "weighted:ramp", rates))
		}},
		{"node-clock", csr, func(g graph.Graph) Scheduler { return must(NewNodeClock(g)) }},
		{"churn-uniform", csr, func(g graph.Graph) Scheduler { return must(NewChurn(g, 16, 4)) }},
	}
	sixState := func(graph.Graph) func() Protocol { return func() Protocol { return beauquier.New() } }
	majorityOf := func(g graph.Graph) func() Protocol {
		inputs := make([]bool, g.N())
		for i := 0; i <= g.N()/2; i++ {
			inputs[i] = true
		}
		return func() Protocol { return majority.New(inputs) }
	}
	type reuseCase struct {
		name    string
		g       graph.Graph
		proto   func() Protocol
		opts    Options // Scheduler, DropRate, NoTable, MaxSteps, ObserveEvery
		seed    uint64
		label   string
		panicky bool
	}
	fast := func(graph.Graph) func() Protocol {
		return func() Protocol { return fastelect.New(fastelect.Params{H: 2, L: 3, AlphaL: 5}) }
	}
	protos := []struct {
		tag     string
		make    func(graph.Graph) func() Protocol
		noTable bool
	}{
		{"six-state", sixState, false}, {"fast", fast, false}, {"six-state-step", sixState, true},
		{"majority", majorityOf, false}, {"fast-step", fast, true},
	}
	var cases []reuseCase
	for _, kc := range kernels {
		i := 0
		for _, pc := range protos {
			for _, drop := range []float64{0, 0.1} {
				for _, every := range []int64{0, 7} {
					g := kc.graphs[i%2]
					i++
					dispatch := "/table"
					if pc.noTable {
						dispatch = "/step"
					}
					cases = append(cases, reuseCase{
						name:  fmt.Sprintf("%s/%s/%s/drop%v/every%d", kc.engine, g.Name(), pc.tag, drop, every),
						g:     g,
						proto: pc.make(g),
						opts:  Options{Scheduler: kc.sched(g), DropRate: drop, NoTable: pc.noTable, ObserveEvery: every},
						seed:  uint64(len(cases) + 1),
						label: kc.engine + dispatch,
					})
				}
			}
		}
	}
	// A run cut off by its cap mid-block, and one killed by a panic
	// after a few refills; both land between runs of other kernels.
	capped := cases[4*len(protos)] // clique-uniform on clique-23
	capped.name, capped.opts.MaxSteps, capped.seed = capped.name+"/cap400", 400, 1000
	panicky := cases[len(cases)/2]
	panicky.name, panicky.seed, panicky.panicky = panicky.name+"/panics", 1001, true
	inner := panicky.proto
	panicky.proto = func() Protocol { return &panicAt{Protocol: inner(), at: 200} }
	cases = slices.Insert(cases, 3, capped)
	cases = slices.Insert(cases, len(cases)/3, panicky)

	run := func(c reuseCase, reference bool) (o reuseOutcome) {
		r := xrand.New(c.seed)
		meter := new(telemetry.Counters)
		opts := c.opts
		opts.Meter, opts.Reference = meter, reference
		if opts.ObserveEvery > 0 {
			o.obs = &recordingObserver{g: c.g}
			opts.Observer = o.obs
		}
		func() {
			defer func() { o.panicked = recover() }()
			o.res = Run(c.g, c.proto(), r, opts)
		}()
		o.post = r.Save()
		s := meter.Snapshot()
		o.steps, o.refills, o.drops = s.StepsExecuted, s.RNGRefills, s.DropsApplied
		for label := range s.KernelDispatch {
			o.dispatch = label
		}
		return o
	}
	first := make([]reuseOutcome, len(cases))
	for i, c := range cases {
		got := run(c, false)
		first[i] = got
		if c.panicky {
			if got.panicked == nil || got.steps != 0 || got.dispatch != "" {
				t.Fatalf("%s: want a panic and an empty meter, got %+v", c.name, got)
			}
			continue
		}
		want := run(c, true)
		if got.panicked != nil || want.panicked != nil {
			t.Fatalf("%s: unexpected panic: %v / %v", c.name, got.panicked, want.panicked)
		}
		if got.res != want.res || got.post != want.post || got.drops != want.drops {
			t.Fatalf("%s: pooled kernel diverged from the reference loop: %+v, want %+v", c.name, got, want)
		}
		if got.obs != nil && (got.obs.err != nil || !got.obs.equal(want.obs)) {
			t.Fatalf("%s: observer sequence diverged from the reference loop (%v)", c.name, got.obs.err)
		}
		if blocks := (drawsConsumed(t, c.seed, got.post) + prefetchBlock - 1) / prefetchBlock; got.refills != blocks {
			t.Fatalf("%s: meter counted %d refills, the run's draws span %d blocks", c.name, got.refills, blocks)
		}
		if got.dispatch != c.label || got.steps != got.res.Steps {
			t.Fatalf("%s: meter saw %q over %d steps, want %q over %d", c.name, got.dispatch, got.steps, c.label, got.res.Steps)
		}
		if c.opts.MaxSteps > 0 && (got.res.Stabilized || got.res.Steps != c.opts.MaxSteps) {
			t.Fatalf("%s: want a run cut off by its cap, got %+v", c.name, got.res)
		}
	}
	for i := len(cases) - 1; i >= 0; i-- {
		if got := run(cases[i], false); !got.equal(first[i]) {
			t.Fatalf("%s: rerun on reused kernels diverged from its first run:\n%+v\n%+v", cases[i].name, got, first[i])
		}
	}
	// The pools are shared by every goroutine: concurrent runs, each
	// goroutine starting at a different case, must replay too (run this
	// under -race).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range cases {
				i := (j + w*len(cases)/4) % len(cases)
				if got := run(cases[i], false); !got.equal(first[i]) {
					t.Errorf("%s: concurrent rerun diverged from its first run", cases[i].name)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEngineObserverAndDropOnFastPath — instrumented runs now stay on
// the specialized kernels (observers are chunk boundaries, drops are
// prefetched block draws); the observable behaviour must be unchanged —
// an every-step observer sees every step, drop-rate runs stabilize.
func TestEngineObserverAndDropOnFastPath(t *testing.T) {
	g := graph.NewClique(12)
	obs := &countingObserver{}
	res := Run(g, beauquier.New(), xrand.New(5), Options{Observer: obs, ObserveEvery: 1})
	if !res.Stabilized || int64(obs.calls) != res.Steps || obs.starts != 1 || len(obs.finals) != 1 {
		t.Fatalf("observer saw %d of %d steps, %d t = 0 and %d final callbacks",
			obs.calls, res.Steps, obs.starts, len(obs.finals))
	}
	res = Run(g, beauquier.New(), xrand.New(5), Options{DropRate: 0.5})
	if !res.Stabilized {
		t.Fatal("drop-rate run did not stabilize")
	}
}

// recordingObserver captures the callback sequence — time, final flag,
// the passed protocol's O(1) leader counter and, for a Tabular protocol,
// its gap counter (-1 otherwise) — so equivalence checks catch a kernel
// that applies steps in the right order but observes at the wrong
// moment. At every callback it also checks both counters against full
// scans: the oracle for the counters trajectories read.
type recordingObserver struct {
	g       graph.Graph
	ts      []int64
	finals  []bool
	leaders []int
	gaps    []int
	err     error // first counter/scan mismatch
}

func (o *recordingObserver) Observe(t int64, p Protocol, final bool) {
	gap := -1
	if tp, ok := p.(*Tabular); ok {
		gap = tp.Gap()
		if _, scan := tp.Table().Counters(tp.TableStates()); scan != gap && o.err == nil {
			o.err = fmt.Errorf("step %d: Gap() = %d, full scan %d", t, gap, scan)
		}
	}
	if scan := CountLeaders(o.g, p); scan != p.Leaders() && o.err == nil {
		o.err = fmt.Errorf("step %d: Leaders() = %d, full scan %d", t, p.Leaders(), scan)
	}
	o.ts = append(o.ts, t)
	o.finals = append(o.finals, final)
	o.leaders = append(o.leaders, p.Leaders())
	o.gaps = append(o.gaps, gap)
}

// intervals counts the interval callbacks, the ones a meter tallies.
func (o *recordingObserver) intervals() int64 {
	n := int64(0)
	for i, t := range o.ts {
		if t > 0 && !o.finals[i] {
			n++
		}
	}
	return n
}

func (o *recordingObserver) equal(other *recordingObserver) bool {
	if len(o.ts) != len(other.ts) {
		return false
	}
	for i := range o.ts {
		if o.ts[i] != other.ts[i] || o.finals[i] != other.finals[i] ||
			o.leaders[i] != other.leaders[i] || o.gaps[i] != other.gaps[i] {
			return false
		}
	}
	return true
}

// referenceRun is an independent step-at-a-time loop implementing the
// run semantics from first principles — one Source.Next per step, a
// live Float64 drop draw after each delivered contact, observer at
// t = 0, on every multiple of the interval and once more at the end,
// stabilization checked after every step. It deliberately shares no
// code with plan.go or engine.go: it is the meaning the compiled
// kernels must reproduce byte for byte.
func referenceRun(g graph.Graph, p Protocol, r *xrand.Rand, opts Options) Result {
	p.Reset(g, r)
	if opts.Observer != nil {
		opts.Observer.Observe(0, p, false)
	}
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
			opts.Observer.Observe(t, p, false)
		}
		if p.Stable() {
			if opts.Observer != nil {
				opts.Observer.Observe(t, p, true)
			}
			return Result{Steps: t, Stabilized: true, Leader: FindLeader(g, p)}
		}
	}
	if opts.Observer != nil {
		opts.Observer.Observe(maxSteps, p, true)
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
	// different table and counter functional per input sign), the star
	// protocol (Tabular, star graphs only) and fast (a clocked Tabular:
	// streak bytes and two tables) ride a trimmed grid — full scheduler
	// × drop coverage, fewer caps/observer cadences — to keep the matrix
	// fast. Options.NoTable doubles as the interface-dispatch control for
	// every Tabular protocol. drops overrides the matrix's drop rates.
	protoCases := []struct {
		tag     string
		make    func(g graph.Graph) func() Protocol
		on      func(g graph.Graph) bool
		caps    []int64
		everies []int64
		seeds   uint64
		drops   []float64
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
		{
			// A level cap of 5 sends most runs through the backup, so both
			// tables, the streak bytes and the token states all move.
			tag: "fast",
			make: func(graph.Graph) func() Protocol {
				return func() Protocol { return fastelect.New(fastelect.Params{H: 2, L: 3, AlphaL: 5}) }
			},
			on:      func(graph.Graph) bool { return true },
			caps:    []int64{511, 0},
			everies: []int64{-1, 7},
			seeds:   2,
			drops:   []float64{0, 0.1},
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
		// implicit clique has no edge list to serialize and is excluded
		// (cmd/preprocess refuses it).
		var snapG graph.Graph
		if d, ok := g.(*graph.Dense); ok {
			data, err := (&snapshot.Snapshot{Graph: d, Source: "test:" + g.Name()}).Encode()
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
				pcDrops := drops
				if pc.drops != nil {
					pcDrops = pc.drops
				}
				for _, drop := range pcDrops {
					for _, maxSteps := range pc.caps {
						for _, every := range pc.everies {
							for seed := uint64(1); seed <= pc.seeds; seed++ {
								name := fmt.Sprintf("%s/%s/%s/drop%v/cap%d/every%d/seed%d",
									g.Name(), pc.tag, sc.tag, drop, maxSteps, every, seed)
								type variant struct {
									res    Result
									r      *xrand.Rand
									post   xrand.State // generator state right after the run
									obs    *recordingObserver
									meter  *telemetry.Counters
									forced bool // Options.Reference
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
										obs = &recordingObserver{g: g}
										opts.Observer = obs
										opts.ObserveEvery = every
									}
									var res Result
									if ref {
										res = referenceRun(g, p, r, opts)
									} else {
										res = Run(g, p, r, opts)
									}
									return variant{res: res, r: r, post: r.Save(), obs: obs, meter: meter, forced: forceGeneric}
								}
								want := runVariant(true, false, false, false)
								if every > 0 && want.obs.err != nil {
									t.Fatalf("%s: reference loop: %v", name, want.obs.err)
								}
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
									if every > 0 && v.obs.err != nil {
										t.Fatalf("%s: %v", name, v.obs.err)
									}
									if every > 0 && !v.obs.equal(want.obs) {
										t.Fatalf("%s: observer sequences diverged:\nplan %v %v %v\nref  %v %v %v",
											name, v.obs.ts, v.obs.leaders, v.obs.gaps, want.obs.ts, want.obs.leaders, want.obs.gaps)
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
										wantObs = v.obs.intervals()
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
									// Only Reference and churn on the implicit
									// clique run the generic loop; every other
									// cell, churn on CSR graphs included, must
									// reach its sampler loop.
									_, dense := g.(*graph.Dense)
									if wantGeneric := v.forced || (sc.tag == "churn" && !dense); generic != wantGeneric {
										t.Fatalf("%s: kernel dispatch %v, want generic=%v", name, s.KernelDispatch, wantGeneric)
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
										obs = &recordingObserver{g: snapG}
										opts.Observer = obs
										opts.ObserveEvery = every
									}
									res := Run(snapG, p, r, opts)
									if res != want.res {
										t.Fatalf("%s: snapshot-loaded run diverged: %+v, reference %+v", name, res, want.res)
									}
									if every > 0 && (obs.err != nil || !obs.equal(want.obs)) {
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
