// Benchmarks regenerating the paper's evaluation. Two layers:
//
//   - BenchmarkExperiment/E* runs each experiment of the harness (DESIGN.md
//     E1–E14, covering every row of Table 1 and every quantitative lemma)
//     in quick mode; one op = one full experiment.
//   - BenchmarkElection/* measures a single protocol on a single
//     representative graph per Table 1 family and reports the stabilization
//     time as a custom "steps/op" metric, so `go test -bench` output can be
//     read directly against the paper's complexity columns.
//
// Absolute wall-clock numbers depend on the host; the paper comparison is
// about the steps/op shapes (see EXPERIMENTS.md).
package popgraph_test

import (
	"math"
	"slices"
	"testing"

	"popgraph"
	"popgraph/internal/exp"
	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

func BenchmarkExperiment(b *testing.B) {
	for _, e := range exp.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(exp.Config{Seed: 2022, Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// electionCase is one Table 1 cell: a graph family representative and a
// protocol.
type electionCase struct {
	name  string
	graph func(r *popgraph.Rand) popgraph.Graph
	proto string
}

func electionCases() []electionCase {
	fixed := func(g popgraph.Graph) func(*popgraph.Rand) popgraph.Graph {
		return func(*popgraph.Rand) popgraph.Graph { return g }
	}
	gnp := func(r *popgraph.Rand) popgraph.Graph {
		g, err := popgraph.Gnp(256, 0.5, r)
		if err != nil {
			panic(err)
		}
		return g
	}
	var cases []electionCase
	for _, proto := range []string{"six-state", "identifier", "fast"} {
		cases = append(cases,
			electionCase{"General/lollipop-32-32/" + proto, fixed(popgraph.Lollipop(32, 32)), proto},
			electionCase{"Regular/cycle-128/" + proto, fixed(popgraph.Cycle(128)), proto},
			electionCase{"Regular/torus-16x16/" + proto, fixed(popgraph.Torus(16, 16)), proto},
			electionCase{"Clique/clique-256/" + proto, fixed(popgraph.Clique(256)), proto},
			electionCase{"DenseRandom/gnp-256/" + proto, gnp, proto},
		)
	}
	cases = append(cases,
		electionCase{"Star/star-1024/star", fixed(popgraph.Star(1024)), "star"},
		electionCase{"Star/star-256/six-state", fixed(popgraph.Star(256)), "six-state"},
	)
	return cases
}

func BenchmarkElection(b *testing.B) {
	for _, c := range electionCases() {
		b.Run(c.name, func(b *testing.B) {
			setup := popgraph.NewRand(99)
			g := c.graph(setup)
			var totalSteps float64
			for i := 0; i < b.N; i++ {
				p, err := popgraph.ParseProtocol(c.proto, g, setup)
				if err != nil {
					b.Fatal(err)
				}
				r := popgraph.NewRand(uint64(1000 + i))
				res := popgraph.Run(g, p, r, popgraph.Options{})
				if !res.Stabilized {
					b.Fatal("run hit the step cap")
				}
				totalSteps += float64(res.Steps)
			}
			b.ReportMetric(totalSteps/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkEngineThroughput measures raw interactions/second of the
// scheduler + protocol hot loop (six-state on a clique never stabilizes
// quickly at this size, so all b.N iterations are protocol steps).
func BenchmarkEngineThroughput(b *testing.B) {
	g := popgraph.Clique(1024)
	p := popgraph.NewSixState()
	r := popgraph.NewRand(1)
	res := popgraph.Run(g, p, r, popgraph.Options{MaxSteps: 1})
	_ = res
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := g.SampleEdge(r)
		p.Step(u, v)
	}
}

// BenchmarkEngine compares the full engine per interaction — scheduler
// sampling + protocol step + stability check — between the
// type-specialized block-sampling loops and the generic reference loop
// (forced via Options.Reference) on each concrete graph representation.
// ns/op is ns per interaction. Runs that stabilize before b.N steps are
// restarted, so every op is a real interaction.
func BenchmarkEngine(b *testing.B) {
	cases := []struct {
		name string
		g    popgraph.Graph
	}{
		{"clique-1024", popgraph.Clique(1024)},
		{"torus-32x32", popgraph.Torus(32, 32)},
		{"lollipop-64-64", popgraph.Lollipop(64, 64)},
	}
	for _, c := range cases {
		for _, engine := range []string{"specialized", "generic"} {
			b.Run(c.name+"/"+engine, func(b *testing.B) {
				opts := popgraph.Options{Reference: engine == "generic"}
				r := popgraph.NewRand(1)
				for done := int64(0); done < int64(b.N); {
					opts.MaxSteps = int64(b.N) - done
					done += popgraph.Run(c.g, popgraph.NewSixState(), r, opts).Steps
				}
			})
		}
	}
}

// BenchmarkWattsStrogatz measures set-up on a sparse graph: sampling
// and rewiring ws:100000:10:0.1, the O(n + m) CSR build and the BFS
// connectivity check. One op is one graph.
func BenchmarkWattsStrogatz(b *testing.B) {
	r := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := graph.WattsStrogatz(100000, 10, 0.1, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewAlias measures the alias-table build the weighted and
// node-clock schedulers run, over 10⁶ exponential weights (the
// weighted:exp rates). One op is one table.
func BenchmarkNewAlias(b *testing.B) {
	r := xrand.New(1)
	weights := make([]float64, 1000000)
	for i := range weights {
		weights[i] = -math.Log(1 - r.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// NewAlias scales its slice in place: give each table a copy.
		if _, err := xrand.NewAlias(slices.Clone(weights)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewDenseFromPacked measures a snapshot load's graph step:
// the strict-ascent check and the CSR fill over ws:100000:10:0.1's
// 500,000 packed edges. One op is one graph.
func BenchmarkNewDenseFromPacked(b *testing.B) {
	g, err := graph.WattsStrogatz(100000, 10, 0.1, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	packed := g.PackedEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.NewDenseFromPacked(g.N(), packed, g.Name(), -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScheduled compares the specialized scheduler kernels —
// weighted alias-table, node-clock, and the in-kernel drop path — against
// the generic Source-driven reference loop that Options.Reference forces.
// Both consume the identical random stream, so ns/op differences are pure
// engine speedup.
func BenchmarkEngineScheduled(b *testing.B) {
	g := popgraph.Torus(32, 32)
	setup := popgraph.NewRand(7)
	weighted, err := popgraph.ParseScheduler("weighted:exp", g, setup)
	if err != nil {
		b.Fatal(err)
	}
	nodeClock, err := popgraph.ParseScheduler("node-clock", g, setup)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		opts popgraph.Options
	}{
		{"weighted", popgraph.Options{Scheduler: weighted}},
		{"node-clock", popgraph.Options{Scheduler: nodeClock}},
		{"uniform-drop10", popgraph.Options{DropRate: 0.1}},
	}
	for _, c := range cases {
		for _, engine := range []string{"specialized", "reference"} {
			b.Run(c.name+"/"+engine, func(b *testing.B) {
				opts := c.opts
				opts.Reference = engine == "reference"
				r := popgraph.NewRand(1)
				for done := int64(0); done < int64(b.N); {
					opts.MaxSteps = int64(b.N) - done
					done += popgraph.Run(g, popgraph.NewSixState(), r, opts).Steps
				}
			})
		}
	}
}

// BenchmarkBroadcastMeasurement covers the E6 primitive: one epidemic on
// a torus per op.
func BenchmarkBroadcastMeasurement(b *testing.B) {
	g := popgraph.Torus(16, 16)
	r := popgraph.NewRand(1)
	var total float64
	for i := 0; i < b.N; i++ {
		total += float64(popgraph.BroadcastFrom(g, 0, r))
	}
	b.ReportMetric(total/float64(b.N), "steps/op")
}

// BenchmarkHittingExact covers the E9 primitive: exact worst-case hitting
// time of a 96-node dense random graph per op.
func BenchmarkHittingExact(b *testing.B) {
	r := popgraph.NewRand(1)
	g, err := popgraph.Gnp(96, 0.5, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		popgraph.EstimateHittingTime(g, r, true)
	}
}
