package popgraph_test

import (
	"fmt"

	"popgraph"
)

// Example elects a leader on a cycle with the constant-state protocol.
func Example() {
	r := popgraph.NewRand(1)
	g := popgraph.Cycle(16)
	res := popgraph.Run(g, popgraph.NewSixState(), r, popgraph.Options{})
	fmt.Println("stabilized:", res.Stabilized, "single leader:", res.Leader >= 0)
	// Output:
	// stabilized: true single leader: true
}

// ExampleNewFastFor sizes the fast space-efficient protocol for a
// graph: NewFastFor estimates its broadcast time and picks the
// Theorem 24 parameters.
func ExampleNewFastFor() {
	r := popgraph.NewRand(2)
	g := popgraph.Clique(64)
	p := popgraph.NewFastFor(g, r)
	res := popgraph.Run(g, p, r, popgraph.Options{})
	fmt.Println("stabilized:", res.Stabilized, "states:", p.StateCount(g.N()) < 1000)
	// Output:
	// stabilized: true states: true
}

// ExampleParseGraph builds graphs from the compact spec strings the
// CLIs use.
func ExampleParseGraph() {
	r := popgraph.NewRand(3)
	g, err := popgraph.ParseGraph("torus:4x5", r)
	if err != nil {
		panic(err)
	}
	fmt.Println(g.Name(), g.N(), g.M())
	// Output:
	// torus-4x5 20 40
}

// ExampleNewStarProtocol shows the star protocol stabilizing in
// exactly one interaction on stars — the Table 1 "Stars" row.
func ExampleNewStarProtocol() {
	r := popgraph.NewRand(4)
	res := popgraph.Run(popgraph.Star(1000), popgraph.NewStarProtocol(), r, popgraph.Options{})
	fmt.Println("steps:", res.Steps)
	// Output:
	// steps: 1
}

// ExampleCompile exposes the execution plan a run would use: the
// scheduler kernel for the graph shape and, per protocol, the dispatch
// — a constant-state (Tabular) protocol like the six-state baseline
// fuses into a transition-table kernel with no interface calls in the
// hot loop. RunE is the error-returning way to execute the same plan.
func ExampleCompile() {
	r := popgraph.NewRand(6)
	g := popgraph.Torus(8, 8)
	plan, err := popgraph.Compile(g, popgraph.Options{})
	if err != nil {
		panic(err)
	}
	p := popgraph.NewSixState()
	fmt.Println("engine:", plan.Engine(), "dispatch:", plan.ProtocolEngine(p))
	res, err := popgraph.RunE(g, p, r, popgraph.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("stabilized:", res.Stabilized, "leaders:", p.Leaders())
	// Output:
	// engine: dense-uniform dispatch: table
	// stabilized: true leaders: 1
}

// ExampleNewMajority runs exact majority, the extension module the
// paper's conclusions suggest: same token random-walk techniques,
// different problem. Once stable, every node outputs the majority
// opinion, true as Leader.
func ExampleNewMajority() {
	r := popgraph.NewRand(5)
	inputs := make([]bool, 21)
	for i := 0; i < 13; i++ {
		inputs[i] = true // 13 of 21 vote "true"
	}
	p := popgraph.NewMajority(inputs)
	res := popgraph.Run(popgraph.Cycle(21), p, r, popgraph.Options{})
	fmt.Println("stabilized:", res.Stabilized, "winner:", p.Output(0) == popgraph.Leader)
	// Output:
	// stabilized: true winner: true
}
