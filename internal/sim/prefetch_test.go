package sim_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"popgraph/internal/graph"
	"popgraph/internal/protocols/beauquier"
	. "popgraph/internal/sim"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// forcePrefetch forces the lookahead on for the rest of the test and
// checks that it took: a plan on a small torus must now prefetch.
func forcePrefetch(t *testing.T) {
	t.Helper()
	ForcePrefetch(t, true)
	pl, err := Compile(graph.Torus2D(3, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Prefetch() {
		t.Fatal("ForcePrefetch left a torus plan without its lookahead")
	}
}

// The lookahead only reads draws the block already holds, so the
// determinism matrix, the kernel-reuse replay and the table fuzz seeds
// must pass unchanged with it forced on: every sampler × drop ×
// observer × protocol cell, runs that cross block boundaries included.
// A lookahead that drew from the stream or moved the cursor would
// shift every later draw and fail them.

func TestPlanEquivalenceMatrixPrefetched(t *testing.T) {
	forcePrefetch(t)
	TestPlanEquivalenceMatrix(t)
}

func TestKernelReusePrefetched(t *testing.T) {
	forcePrefetch(t)
	TestKernelReuse(t)
}

func TestTableEquivalenceSeedsPrefetched(t *testing.T) {
	forcePrefetch(t)
	for i, c := range tableEquivalenceSeeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			tableEquivalence(t, c.gsel, c.seed, c.steps, c.dropSel, c.schedSel, c.protoSel)
		})
	}
}

// TestPrefetchGate checks Compile's lookahead decision and its count in
// the flight recorder. By default a cache-resident graph never
// prefetches, and on amd64 a sampler whose arrays overflow the gate
// does; forced on, every CSR sampler prefetches, while clique-uniform,
// node-clock on the implicit clique and the generic loop, which have
// no lookahead, never do.
func TestPrefetchGate(t *testing.T) {
	torus := graph.Torus2D(4, 5)
	clique := graph.NewClique(9)
	big := graph.Torus2D(512, 512) // 2¹⁹ edges: 4 MiB of packed edges alone
	weighted := func(g graph.Graph) Scheduler {
		s, err := NewWeighted(g, "w", ones(g.M()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	nodeClock := func(g graph.Graph) Scheduler {
		s, err := NewNodeClock(g)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	churn := func(g graph.Graph) Scheduler {
		s, err := NewChurn(g, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	type gateCase struct {
		name          string
		g             graph.Graph
		opts          Options
		forced, bigOn bool // Prefetch() when forced; on amd64 by default
	}
	onBig := runtime.GOARCH == "amd64"
	cases := []gateCase{
		{"dense-uniform", torus, Options{}, true, false},
		{"weighted", torus, Options{Scheduler: weighted(torus)}, true, false},
		{"node-clock", torus, Options{Scheduler: nodeClock(torus)}, true, false},
		{"churn-uniform", torus, Options{Scheduler: churn(torus), DropRate: 0.1}, true, false},
		{"clique-uniform", clique, Options{}, false, false},
		{"node-clock-clique", clique, Options{Scheduler: nodeClock(clique)}, false, false},
		{"generic", torus, Options{Reference: true}, false, false},
		{"big/dense-uniform", big, Options{}, true, onBig},
		{"big/weighted", big, Options{Scheduler: weighted(big)}, true, onBig},
		{"big/node-clock", big, Options{Scheduler: nodeClock(big)}, true, onBig},
		{"big/churn-uniform", big, Options{Scheduler: churn(big)}, true, onBig},
		{"big/generic", big, Options{Reference: true}, false, false},
	}
	check := func(c gateCase, want bool) {
		t.Helper()
		meter := new(telemetry.Counters)
		opts := c.opts
		opts.Meter, opts.MaxSteps = meter, 100
		pl, err := Compile(c.g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Prefetch() != want {
			t.Errorf("%s: Prefetch() = %v, want %v", c.name, pl.Prefetch(), want)
		}
		pl.Run(beauquier.New(), xrand.New(1))
		pl.Run(beauquier.New(), xrand.New(2))
		runs := int64(0)
		if want {
			runs = 2
		}
		if s := meter.Snapshot(); s.PrefetchRuns != runs {
			t.Errorf("%s: meter counted %d prefetching runs, want %d", c.name, s.PrefetchRuns, runs)
		}
	}
	for _, c := range cases {
		check(c, c.bigOn)
	}
	forcePrefetch(t)
	for _, c := range cases {
		check(c, c.forced)
	}
}

// TestLookaheadZeroWeights runs the weighted lookahead over an alias
// table with zero-weight columns: such a column always defers to its
// alias, so the guessed column, its alias and the pairs slot must stay
// in range on every step. Forced on, runs that cross many blocks must
// match the reference loop draw for draw, with and without drops.
func TestLookaheadZeroWeights(t *testing.T) {
	forcePrefetch(t)
	g := graph.Torus2D(6, 7)
	rates := make([]float64, g.M())
	for i := range rates {
		if i%3 == 1 || i >= len(rates)-4 {
			rates[i] = float64(1 + i%4)
		}
	}
	sched, err := NewWeighted(g, "weighted:zeros", rates)
	if err != nil {
		t.Fatal(err)
	}
	for _, drop := range []float64{0, 0.1} {
		for seed := uint64(1); seed <= 3; seed++ {
			run := func(reference bool) (Result, xrand.State) {
				r := xrand.New(seed)
				res := Run(g, beauquier.New(), r, Options{Scheduler: sched, DropRate: drop, MaxSteps: 5000, Reference: reference})
				return res, r.Save()
			}
			got, gotPost := run(false)
			want, wantPost := run(true)
			if got != want || gotPost != wantPost {
				t.Fatalf("drop %v seed %d: prefetching kernel %+v, reference %+v", drop, seed, got, want)
			}
		}
	}
}

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// BenchmarkLargeGraphSamplers is the per-layer evidence for the
// lookahead gate: six-state under each of the four prefetching samplers
// (drop 0.1, as in the bigraph workload) on a torus whose arrays fit
// the per-core L2 cache and on ws:200000:10:0.1, whose arrays do not,
// with the lookahead forced on and off. One op is one run of 2¹⁸
// steps; ns/step is the figure to compare.
//
//	go test -run '^$' -bench LargeGraphSamplers -benchtime 20x -count 5 ./internal/sim
func BenchmarkLargeGraphSamplers(b *testing.B) {
	const steps = 1 << 18
	graphs := []struct {
		name  string
		build func() (graph.Graph, error)
	}{
		{"torus:64x64", func() (graph.Graph, error) { return graph.Torus2D(64, 64), nil }},
		{"ws:50000:10:0.1", func() (graph.Graph, error) { return graph.WattsStrogatz(50000, 10, 0.1, xrand.New(1)) }},
		{"ws:200000:10:0.1", func() (graph.Graph, error) { return graph.WattsStrogatz(200000, 10, 0.1, xrand.New(1)) }},
	}
	for _, gc := range graphs {
		g, err := gc.build()
		if err != nil {
			b.Fatal(err)
		}
		r := xrand.New(2)
		rates := make([]float64, g.M())
		for i := range rates {
			rates[i] = -math.Log(1 - r.Float64()) // weighted:exp
		}
		weighted, err := NewWeighted(g, "weighted:exp", rates)
		if err != nil {
			b.Fatal(err)
		}
		nodeClock, err := NewNodeClock(g)
		if err != nil {
			b.Fatal(err)
		}
		churn, err := NewChurn(g, 64, 16)
		if err != nil {
			b.Fatal(err)
		}
		for _, sc := range []struct {
			name  string
			sched Scheduler
		}{{"uniform", nil}, {"weighted", weighted}, {"node-clock", nodeClock}, {"churn", churn}} {
			for _, on := range []bool{false, true} {
				b.Run(fmt.Sprintf("%s/%s/prefetch=%v", gc.name, sc.name, on), func(b *testing.B) {
					ForcePrefetch(b, on)
					pl, err := Compile(g, Options{Scheduler: sc.sched, DropRate: 0.1, MaxSteps: steps})
					if err != nil {
						b.Fatal(err)
					}
					if pl.Prefetch() != on {
						b.Fatalf("plan prefetch %v, forced %v", pl.Prefetch(), on)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						pl.Run(beauquier.New(), xrand.New(uint64(i)))
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
				})
			}
		}
	}
}
