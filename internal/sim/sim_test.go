package sim_test

import (
	"math"
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/protocols/beauquier"
	. "popgraph/internal/sim"
	"popgraph/internal/xrand"
)

func TestScriptedSampler(t *testing.T) {
	s := &ScriptedSampler{Pairs: [][2]int{{0, 1}, {2, 1}}}
	src := s.Begin(nil)
	if u, v, ok := src.Next(1, nil); u != 0 || v != 1 || !ok {
		t.Fatalf("first pair (%d,%d) ok=%v", u, v, ok)
	}
	if u, v, ok := src.Next(2, nil); u != 2 || v != 1 || !ok {
		t.Fatalf("second pair (%d,%d) ok=%v", u, v, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when exhausted")
		}
	}()
	src.Next(3, nil)
}

func TestRunScriptedBeauquier(t *testing.T) {
	// Path 0-1-2, all candidates with black tokens. Scripted:
	// (0,1): blacks meet, responder 1 gets white, consumes it -> follower.
	// (1,2): 1 has no token, 2 has black; swap: 1 black, 2 candidate none.
	// (1,0): blacks meet again, responder 0 eliminated. Stable: node 2?
	// After (1,0): initiator 1 keeps black, 0's new token white consumed,
	// 0 becomes follower. Remaining candidate: 2. Stable at step 3.
	g := graph.Path(3)
	p := beauquier.New()
	r := xrand.New(1)
	res := Run(g, p, r, Options{
		Scheduler: &ScriptedSampler{Pairs: [][2]int{{0, 1}, {1, 2}, {1, 0}}},
		MaxSteps:  3,
	})
	if !res.Stabilized || res.Steps != 3 {
		t.Fatalf("result %+v", res)
	}
	if res.Leader != 2 {
		t.Fatalf("leader = %d, want 2", res.Leader)
	}
}

func TestRunStabilizesAndAgreesWithScan(t *testing.T) {
	graphs := []graph.Graph{
		graph.NewClique(12),
		graph.Cycle(10),
		graph.Star(9),
		graph.Torus2D(3, 4),
	}
	for _, g := range graphs {
		t.Run(g.Name(), func(t *testing.T) {
			p := beauquier.New()
			r := xrand.New(42)
			res := Run(g, p, r, Options{})
			if !res.Stabilized {
				t.Fatalf("did not stabilize in %d steps", res.Steps)
			}
			if res.Leader < 0 || res.Leader >= g.N() {
				t.Fatalf("bad leader %d", res.Leader)
			}
			if got := CountLeaders(g, p); got != 1 {
				t.Fatalf("scan found %d leaders", got)
			}
			if p.Output(res.Leader) != core.Leader {
				t.Fatal("reported leader does not output leader")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	g := graph.Cycle(16)
	a := Run(g, beauquier.New(), xrand.New(7), Options{})
	b := Run(g, beauquier.New(), xrand.New(7), Options{})
	if a != b {
		t.Fatalf("same seed produced different results: %+v vs %+v", a, b)
	}
	c := Run(g, beauquier.New(), xrand.New(8), Options{})
	if a == c {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

func TestRunMaxStepsCap(t *testing.T) {
	g := graph.Cycle(64)
	res := Run(g, beauquier.New(), xrand.New(1), Options{MaxSteps: 5})
	if res.Stabilized {
		t.Fatal("cannot stabilize 64 candidates in 5 steps")
	}
	if res.Steps != 5 || res.Leader != -1 {
		t.Fatalf("result %+v", res)
	}
}

func TestRunPanicsOnTinyGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g, err := graph.NewDense(1, nil, "single")
	if err != nil {
		// A 1-node graph with no edges is connected; constructor allows it.
		t.Skipf("constructor rejected: %v", err)
	}
	Run(g, beauquier.New(), xrand.New(1), Options{})
}

// countingObserver tallies the three kinds of observer callback.
type countingObserver struct {
	calls  int     // interval callbacks
	starts int     // t = 0 callbacks
	finals []int64 // steps of final callbacks
}

func (o *countingObserver) Observe(t int64, _ Protocol, final bool) {
	switch {
	case final:
		o.finals = append(o.finals, t)
	case t == 0:
		o.starts++
	default:
		o.calls++
	}
}

// TestObserverCadence — one t = 0 callback, one per interval, and one
// final callback at the run's last step.
func TestObserverCadence(t *testing.T) {
	g := graph.NewClique(8)
	obs := &countingObserver{}
	res := Run(g, beauquier.New(), xrand.New(3), Options{Observer: obs, ObserveEvery: 10})
	if !res.Stabilized {
		t.Fatal("did not stabilize")
	}
	want := int(res.Steps / 10)
	if obs.calls != want {
		t.Fatalf("observer called %d times, want %d (steps=%d)", obs.calls, want, res.Steps)
	}
	if obs.starts != 1 || len(obs.finals) != 1 || obs.finals[0] != res.Steps {
		t.Fatalf("%d t = 0 callbacks and final callbacks at %v, want 1 and [%d]", obs.starts, obs.finals, res.Steps)
	}
}

// TestDropRateRobustness — with interactions dropped at rate q, protocols
// still stabilize, slowed by roughly 1/(1−q).
func TestDropRateRobustness(t *testing.T) {
	g := graph.NewClique(24)
	const trials = 12
	meanSteps := func(drop float64) float64 {
		var total int64
		for i := 0; i < trials; i++ {
			res := Run(g, beauquier.New(), xrand.New(uint64(500+i)), Options{DropRate: drop})
			if !res.Stabilized {
				t.Fatalf("drop %v: did not stabilize", drop)
			}
			total += res.Steps
		}
		return float64(total) / trials
	}
	base := meanSteps(0)
	half := meanSteps(0.5)
	ratio := half / base
	if ratio < 1.4 || ratio > 3.2 {
		t.Errorf("drop 0.5 slowed by %vx, want ≈2x", ratio)
	}
}

func TestDropRateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(graph.NewClique(4), beauquier.New(), xrand.New(1), Options{DropRate: 1})
}

func TestDefaultMaxSteps(t *testing.T) {
	if DefaultMaxSteps(2) != 1<<22 {
		t.Fatal("floor not applied")
	}
	// 72·n⁴·log₂n at n = 1024 (log₂ = 10).
	if want := int64(72) * 1024 * 1024 * 1024 * 1024 * 10; DefaultMaxSteps(1024) != want {
		t.Fatalf("DefaultMaxSteps(1024) = %d, want %d", DefaultMaxSteps(1024), want)
	}
	prev := int64(0)
	for _, n := range []int{2, 10, 100, 1000, 10000} {
		if c := DefaultMaxSteps(n); c < prev {
			t.Fatalf("cap not monotone at n=%d: %d < %d", n, c, prev)
		} else {
			prev = c
		}
	}
}

// TestDefaultMaxStepsCoversLollipop is the regression test for the old
// 72·n³ cap, which contradicted the doc comment: six-state on
// lollipop(n/2, n/2) stabilizes in Θ(H·n·log n) expected steps with
// H ≈ (n/2)²·(n/2) = n³/8, which exceeds 72·n³ already at moderate n, so
// runs spuriously reported Stabilized = false. The cap must dominate a
// multiple of the expectation.
func TestDefaultMaxStepsCoversLollipop(t *testing.T) {
	for _, n := range []int{64, 128, 512, 4096} {
		nf := float64(n)
		expect := nf * nf * nf / 8 * nf * math.Log2(nf)
		if got := float64(DefaultMaxSteps(n)); got < 4*expect {
			t.Errorf("DefaultMaxSteps(%d) = %g below 4× lollipop expectation %g", n, got, 4*expect)
		}
	}
}

// TestDefaultMaxStepsOverflowGuard — 72·n⁴·log₂n overflows int64 around
// n ≈ 50k; the cap must clamp, not wrap negative.
func TestDefaultMaxStepsOverflowGuard(t *testing.T) {
	for _, n := range []int{50_000, 5_000_000, math.MaxInt32} {
		got := DefaultMaxSteps(n)
		if got <= 0 {
			t.Fatalf("DefaultMaxSteps(%d) = %d overflowed", n, got)
		}
		if got != 1<<62 {
			t.Fatalf("DefaultMaxSteps(%d) = %d, want clamp 2^62", n, got)
		}
	}
}
