// Package popgraph is a simulation library for stable leader election in
// stochastic population protocols on graphs, reproducing "Near-Optimal
// Leader Election in Population Protocols on Graphs" (Alistarh, Rybicki,
// Voitovych; PODC 2022).
//
// # Model
//
// A population protocol runs on a connected graph G with n anonymous
// nodes. In each discrete step a scheduler samples an ordered pair of
// adjacent nodes uniformly among all 2m ordered pairs; the pair interacts
// (initiator, responder) and both update their local state. Stable leader
// election requires reaching a configuration with exactly one node
// outputting leader that no future schedule can change.
//
// # What the library provides
//
//   - graph families: cliques, cycles, paths, stars, tori, grids,
//     hypercubes, trees, lollipops, barbells, Erdős–Rényi G(n,p), random
//     regular graphs, Watts–Strogatz small worlds, Barabási–Albert
//     preferential attachment, and the paper's renitent lower-bound
//     constructions;
//   - pluggable interaction schedulers beyond the paper's uniform
//     pairwise model: weighted per-edge contact rates, asynchronous
//     degree-proportional node clocks, and bursty link churn (see
//     Scheduler and ParseScheduler); uniform, weighted and node-clock
//     runs, and churn on CSR graphs, all compile to type-specialized
//     block-sampling fast loops, with drop rates and observers riding
//     along (see Compile), and constant-state (Tabular) protocols fuse
//     their whole transition function into those loops as compiled
//     transition tables — no interface calls on the interaction hot
//     path, byte-identical results either way;
//   - the three protocols of the paper: the constant-state six-state
//     token protocol (Theorem 16), the identifier protocol with O(n⁴)
//     states and O(B(G)+n log n) time (Theorem 21), and the fast
//     space-efficient protocol with O(log² n) states and O(B(G)·log n)
//     time (Theorem 24), plus the trivial star protocol and the exact
//     four-state majority extension (NewMajority);
//   - measurement machinery: broadcast and propagation times (Section 3),
//     random-walk hitting and meeting times (Section 4), streak clocks
//     (Section 5.1), isolating covers (Section 6) and influencer-set
//     tooling (Sections 6.3, 7);
//   - a batch-run subsystem (internal/runner, internal/results,
//     internal/sweep) that fans independent Monte Carlo trials across all
//     cores with deterministic per-trial seeds — parallel and serial
//     execution produce byte-identical JSON Lines result logs — driven
//     declaratively by cmd/sweep (grids of graphs × sizes × protocols ×
//     drop rates) and interactively by cmd/popsim;
//   - an experiment harness regenerating every row of the paper's Table 1
//     (see EXPERIMENTS.md, DESIGN.md and cmd/experiments).
//
// # Quickstart
//
//	r := popgraph.NewRand(42)
//	g := popgraph.Torus(16, 16)
//	res := popgraph.Run(g, popgraph.NewSixState(), r, popgraph.Options{})
//	fmt.Printf("leader %d elected after %d interactions\n", res.Leader, res.Steps)
//
// Batches of independent trials should go through the trial runner
// rather than a hand-rolled loop: build per-trial seeds with
// runner.TrialJobs (or derive them via runner.SeedFor) and execute with
// a runner.Pool, which parallelizes across cores without changing any
// result. See README.md for cmd/sweep usage and the result schema, and
// examples/ for complete programs.
package popgraph

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/snapshot"
	"popgraph/internal/xrand"
)

// Rand is the deterministic random number generator used by all
// simulations (xoshiro256++). Create one with NewRand.
type Rand = xrand.Rand

// NewRand returns a generator seeded deterministically from seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// Graph is a connected simple undirected interaction graph. All functions
// in this package accept any implementation; use the constructors below
// or implement the interface for custom topologies.
type Graph = graph.Graph

// Edge is an undirected edge used by NewGraph.
type Edge = graph.Edge

// NewGraph builds a graph from an explicit edge list. It rejects
// self-loops, duplicates and disconnected graphs.
func NewGraph(n int, edges []Edge, name string) (Graph, error) {
	return graph.NewDense(n, edges, name)
}

// Clique returns the complete graph K_n (implicit representation; cheap
// even for millions of edges).
func Clique(n int) Graph { return graph.NewClique(n) }

// Cycle returns the cycle C_n.
func Cycle(n int) Graph { return graph.Cycle(n) }

// Path returns the path P_n.
func Path(n int) Graph { return graph.Path(n) }

// Star returns the star K_{1,n-1} with node 0 as center.
func Star(n int) Graph { return graph.Star(n) }

// Torus returns the rows×cols wraparound grid (4-regular; dims >= 3).
func Torus(rows, cols int) Graph { return graph.Torus2D(rows, cols) }

// Grid returns the rows×cols grid without wraparound.
func Grid(rows, cols int) Graph { return graph.Grid2D(rows, cols) }

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes.
func Hypercube(dim int) Graph { return graph.Hypercube(dim) }

// Lollipop returns a k-clique with a pathLen-node tail, a classic
// high-hitting-time topology.
func Lollipop(k, pathLen int) Graph { return graph.Lollipop(k, pathLen) }

// Barbell returns two k-cliques joined by a path of pathLen nodes.
func Barbell(k, pathLen int) Graph { return graph.Barbell(k, pathLen) }

// Gnp samples an Erdős–Rényi graph G(n, p) conditioned on connectivity.
func Gnp(n int, p float64, r *Rand) (Graph, error) { return graph.Gnp(n, p, r) }

// WattsStrogatz samples a small-world graph: a ring lattice with k
// neighbors per node (k even), each edge rewired with probability beta,
// conditioned on connectivity. Edge count is always n·k/2.
func WattsStrogatz(n, k int, beta float64, r *Rand) (Graph, error) {
	return graph.WattsStrogatz(n, k, beta, r)
}

// BarabasiAlbert samples a preferential-attachment graph: each new node
// attaches m edges to existing nodes proportionally to degree, growing
// power-law hubs. Connected by construction (1 <= m < n).
func BarabasiAlbert(n, m int, r *Rand) (Graph, error) {
	return graph.BarabasiAlbert(n, m, r)
}

// RandomRegular samples a random d-regular graph conditioned on
// connectivity (3 <= d < n, n·d even).
func RandomRegular(n, d int, r *Rand) (Graph, error) { return graph.RandomRegular(n, d, r) }

// Diameter returns the graph's diameter (exact for known families and
// small graphs, double-sweep lower bound for large unknown ones).
func Diameter(g Graph) int { return graph.Diameter(g) }

// MaxDegree returns Δ(G).
func MaxDegree(g Graph) int { return graph.MaxDegree(g) }

// MinDegree returns δ(G).
func MinDegree(g Graph) int { return graph.MinDegree(g) }

// ParseGraph builds a graph from a compact spec string, used by the CLI
// tools and handy in tests:
//
//	clique:N  cycle:N  path:N  star:N  hypercube:D  torus:RxC  grid:RxC
//	lollipop:K:P  barbell:K:P  gnp:N:P  regular:N:D  ws:N:K:BETA  ba:N:M
//	file:PATH.popg
//
// Random families (gnp, regular, ws, ba) consume randomness from r.
//
// file:PATH loads a preprocessed binary snapshot (popgraph-snap/v2,
// written by cmd/preprocess) instead of generating a graph: one read,
// checksummed, yields the generator's sorted edge list, which is
// checked in full and filled into the same CSR arrays the generator
// built, so runs on the loaded graph are byte-identical to runs on the
// original. A malformed file is an error, never a panic. Generating
// ws:1000000:10:0.1 takes 0.42–0.59 s on a 2-core Xeon VM: rewiring
// 0.12–0.18 s, the bucket sort by smaller endpoint 0.09–0.15 s, the
// CSR fill 0.06–0.10 s and the BFS connectivity check 0.12–0.17 s.
// Loading its snapshot skips all but the CSR fill.
//
// Specs whose parameters are out of range for the family (e.g.
// "cycle:2", "hypercube:0", "torus:2x5", negative sizes) return an
// error; ParseGraph never panics on bad input, so CLI tools can report
// the spec instead of crashing. So do specs with more than 2³¹−1 nodes
// or adjacency entries (2m), which int32 node ids and CSR offsets cannot
// hold; the generators refuse them before allocating.
func ParseGraph(spec string, r *Rand) (Graph, error) {
	if path, ok := strings.CutPrefix(spec, "file:"); ok {
		s, err := snapshot.Load(path)
		if err != nil {
			return nil, fmt.Errorf("popgraph: bad graph spec %q: %w", spec, err)
		}
		return s.Graph, nil
	}
	parts := strings.Split(spec, ":")
	kind := parts[0]
	argErr := func() error {
		return fmt.Errorf("popgraph: bad graph spec %q", spec)
	}
	atoi := func(s string) (int, error) { return strconv.Atoi(s) }
	switch kind {
	case "clique", "cycle", "path", "star", "hypercube":
		if len(parts) != 2 {
			return nil, argErr()
		}
		n, err := atoi(parts[1])
		if err != nil {
			return nil, argErr()
		}
		switch kind {
		case "clique":
			return buildGraph(spec, func() Graph { return Clique(n) })
		case "cycle":
			return buildGraph(spec, func() Graph { return Cycle(n) })
		case "path":
			return buildGraph(spec, func() Graph { return Path(n) })
		case "star":
			return buildGraph(spec, func() Graph { return Star(n) })
		default:
			return buildGraph(spec, func() Graph { return Hypercube(n) })
		}
	case "torus", "grid":
		if len(parts) != 2 {
			return nil, argErr()
		}
		dims := strings.Split(parts[1], "x")
		if len(dims) != 2 {
			return nil, argErr()
		}
		rows, err1 := atoi(dims[0])
		cols, err2 := atoi(dims[1])
		if err1 != nil || err2 != nil {
			return nil, argErr()
		}
		if kind == "torus" {
			return buildGraph(spec, func() Graph { return Torus(rows, cols) })
		}
		return buildGraph(spec, func() Graph { return Grid(rows, cols) })
	case "lollipop", "barbell":
		if len(parts) != 3 {
			return nil, argErr()
		}
		k, err1 := atoi(parts[1])
		p, err2 := atoi(parts[2])
		if err1 != nil || err2 != nil {
			return nil, argErr()
		}
		if kind == "lollipop" {
			return buildGraph(spec, func() Graph { return Lollipop(k, p) })
		}
		return buildGraph(spec, func() Graph { return Barbell(k, p) })
	case "gnp":
		if len(parts) != 3 {
			return nil, argErr()
		}
		n, err1 := atoi(parts[1])
		p, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			return nil, argErr()
		}
		g, err := Gnp(n, p, r)
		if err != nil {
			return nil, fmt.Errorf("popgraph: bad graph spec %q: %w", spec, err)
		}
		return g, nil
	case "regular", "ba":
		if len(parts) != 3 {
			return nil, argErr()
		}
		n, err1 := atoi(parts[1])
		d, err2 := atoi(parts[2])
		if err1 != nil || err2 != nil {
			return nil, argErr()
		}
		var (
			g   Graph
			err error
		)
		if kind == "regular" {
			g, err = RandomRegular(n, d, r)
		} else {
			g, err = BarabasiAlbert(n, d, r)
		}
		if err != nil {
			return nil, fmt.Errorf("popgraph: bad graph spec %q: %w", spec, err)
		}
		return g, nil
	case "ws":
		if len(parts) != 4 {
			return nil, argErr()
		}
		n, err1 := atoi(parts[1])
		k, err2 := atoi(parts[2])
		beta, err3 := strconv.ParseFloat(parts[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, argErr()
		}
		g, err := WattsStrogatz(n, k, beta, r)
		if err != nil {
			return nil, fmt.Errorf("popgraph: bad graph spec %q: %w", spec, err)
		}
		return g, nil
	default:
		return nil, argErr()
	}
}

// buildGraph converts generator panics on out-of-range parameters (which
// are fine for programmatic constructor calls, where they flag a caller
// bug) into errors carrying the offending CLI spec.
func buildGraph(spec string, build func() Graph) (g Graph, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("popgraph: bad graph spec %q: %v", spec, p)
		}
	}()
	return build(), nil
}

// Scheduler is an interaction-selection policy plugged into a run via
// Options.Scheduler: which ordered pair of adjacent nodes interacts at
// each step, and whether a sampled contact is suppressed (link churn).
// nil and the uniform scheduler mean the paper's model — ordered pairs
// uniform among all 2m — and keep the type-specialized fast loops
// engaged. Schedulers must be built for the same graph passed to Run;
// build them with the constructors below or ParseScheduler.
type Scheduler = sim.Scheduler

// NewUniformScheduler returns the paper's uniform pairwise scheduler
// for g, equivalent to leaving Options.Scheduler nil (byte-identical
// results and random stream).
func NewUniformScheduler(g Graph) Scheduler { return sim.Uniform{G: g} }

// NewWeightedScheduler returns a scheduler sampling undirected edges
// proportionally to rates (one nonnegative rate per edge in ForEachEdge
// order, positive sum) via an alias table, orienting each pair with a
// fair coin. name labels the policy in result logs.
func NewWeightedScheduler(g Graph, name string, rates []float64) (Scheduler, error) {
	return sim.NewWeighted(g, name, rates)
}

// NewNodeClockScheduler returns the asynchronous-clock scheduler: an
// initiator is drawn proportionally to degree, then a uniform neighbor
// responds. The induced pair distribution equals the uniform
// scheduler's, realized through a node-centric draw sequence.
func NewNodeClockScheduler(g Graph) (Scheduler, error) { return sim.NewNodeClock(g) }

// NewChurnScheduler returns a link-churn scheduler: pairs are sampled
// uniformly, but every edge independently alternates between up and
// down states with geometric bursts of mean upLen and downLen steps
// (both >= 1); contacts over down edges are suppressed but still count
// as steps.
func NewChurnScheduler(g Graph, upLen, downLen float64) (Scheduler, error) {
	return sim.NewChurn(g, upLen, downLen)
}

// ParseScheduler builds a scheduler for g from a compact spec string,
// mirroring ParseGraph for the scheduler axis of sweeps and CLIs:
//
//	uniform                  the paper's model (the default everywhere)
//	weighted | weighted:exp  i.i.d. Exp(1) per-edge rates drawn from r
//	weighted:degprod         rate of {u,w} = deg(u)·deg(w)
//	node-clock               degree-proportional initiator clocks
//	churn:UP:DOWN            edges flap; mean up/down burst lengths (>= 1)
//
// weighted:exp draws its rates from r on every graph, a file:-loaded
// one included, so sweep grid cells stay byte-identical between file:
// and generator specs.
//
// Bad specs return an error naming the spec; ParseScheduler never
// panics on CLI input.
func ParseScheduler(spec string, g Graph, r *Rand) (Scheduler, error) {
	argErr := func(reason string) error {
		if reason == "" {
			return fmt.Errorf("popgraph: bad scheduler spec %q (want uniform | weighted[:exp|:degprod] | node-clock | churn:UP:DOWN)", spec)
		}
		return fmt.Errorf("popgraph: bad scheduler spec %q: %s", spec, reason)
	}
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "uniform":
		if len(parts) != 1 {
			return nil, argErr("")
		}
		return sim.Uniform{G: g}, nil
	case "weighted":
		model := "exp"
		switch {
		case len(parts) == 2:
			model = parts[1]
		case len(parts) != 1:
			return nil, argErr("")
		}
		// The alias table indexes edges by int32; refuse a graph it
		// cannot hold before allocating one rate per edge.
		if g.M() > math.MaxInt32 {
			return nil, argErr(fmt.Sprintf("%d edges exceed the weighted scheduler's limit of 2^31-1", g.M()))
		}
		rates := make([]float64, 0, g.M())
		switch model {
		case "exp":
			// i.i.d. exponential contact rates: heterogeneous but
			// memoryless, the standard heterogeneous-rates model. Drawn
			// from r at construction, so a sweep cell's instance is fixed
			// across trials.
			for i := 0; i < g.M(); i++ {
				// Inversion: −ln(1−U) with U in [0, 1) is Exp(1).
				rates = append(rates, -math.Log(1-r.Float64()))
			}
		case "degprod":
			g.ForEachEdge(func(u, w int) {
				rates = append(rates, float64(g.Degree(u))*float64(g.Degree(w)))
			})
		default:
			return nil, argErr(fmt.Sprintf("unknown weight model %q (want exp | degprod)", model))
		}
		s, err := sim.NewWeighted(g, "weighted:"+model, rates)
		if err != nil {
			return nil, fmt.Errorf("popgraph: bad scheduler spec %q: %w", spec, err)
		}
		return s, nil
	case "node-clock", "nodeclock":
		if len(parts) != 1 {
			return nil, argErr("")
		}
		s, err := sim.NewNodeClock(g)
		if err != nil {
			return nil, fmt.Errorf("popgraph: bad scheduler spec %q: %w", spec, err)
		}
		return s, nil
	case "churn":
		if len(parts) != 3 {
			return nil, argErr("")
		}
		up, err1 := strconv.ParseFloat(parts[1], 64)
		down, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			return nil, argErr("")
		}
		s, err := sim.NewChurn(g, up, down)
		if err != nil {
			return nil, fmt.Errorf("popgraph: bad scheduler spec %q: %w", spec, err)
		}
		return s, nil
	default:
		return nil, argErr("")
	}
}

// Protocol is a population protocol runnable by Run; see the constructors
// in protocols.go.
type Protocol = sim.Protocol

// Options configures a simulation run. Invalid configurations — a graph
// with fewer than two nodes, a drop rate outside [0, 1), a scheduler
// built for a different graph — are rejected at plan-compile time:
// Compile and RunE return the error, Run panics with it.
type Options = sim.Options

// Result reports the outcome of a run: stabilization step, success flag
// and the elected leader.
type Result = sim.Result

// ExecPlan is a compiled run configuration: Compile validates the
// (graph, scheduler, drop, observer, cap) tuple once and selects the
// fastest execution kernel for it; the plan is immutable and can drive
// any number of runs, concurrent ones included.
type ExecPlan = sim.ExecPlan

// Compile validates opts against g and returns the execution plan a run
// would use, or an error describing the invalid configuration. Use it to
// validate untrusted configurations up front or to inspect the selected
// kernel (ExecPlan.Engine).
func Compile(g Graph, opts Options) (*ExecPlan, error) {
	return sim.Compile(g, opts)
}

// RunE executes the stochastic scheduler on g until the protocol reaches
// a stable configuration (or the step cap from opts is hit), returning
// an error instead of panicking on invalid configurations.
func RunE(g Graph, p Protocol, r *Rand, opts Options) (Result, error) {
	return sim.RunE(g, p, r, opts)
}

// Run is the panicking wrapper around RunE, kept for compatibility and
// convenience with trusted configurations.
func Run(g Graph, p Protocol, r *Rand, opts Options) Result {
	return sim.Run(g, p, r, opts)
}
