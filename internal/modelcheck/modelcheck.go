// Package modelcheck exhaustively verifies the pure interaction machines
// (the six-state token machine of core and the four-state majority
// machine) over ALL interaction schedules on small graphs, by breadth-
// first search of the full configuration space.
//
// This checks the universally-quantified part of the paper's definitions
// that randomized simulation cannot: a configuration is *stable* iff
// every reachable configuration has the same outputs (§2.2), and the
// protocol is correct iff from every reachable configuration some stable
// correct configuration remains reachable (which, with finite
// configuration spaces and the stochastic scheduler's fairness, implies
// almost-sure stabilization).
package modelcheck

import (
	"fmt"

	"popgraph/internal/graph"
)

// Machine is a pure pairwise transition function over byte-encoded node
// states, with a per-node output and a candidate stability predicate on
// global state counts.
type Machine struct {
	// Name identifies the machine in error messages.
	Name string
	// States is the number of distinct node states (encoded 0..States-1).
	States int
	// Step maps (initiator, responder) states to successor states.
	Step func(a, b byte) (byte, byte)
	// Output maps a node state to an output symbol (e.g. leader=1).
	Output func(s byte) byte
	// StablePredicate is the protocol's claimed O(1) stability test,
	// evaluated on the state histogram; Check verifies it EXACTLY
	// coincides with true stability (no reachable output change).
	StablePredicate func(counts []int) bool
	// Correct reports whether an output vector is a correct final answer
	// (e.g. exactly one leader).
	Correct func(outputs []byte) bool
}

// Result summarizes an exhaustive check.
type Result struct {
	// Reachable is the number of reachable configurations.
	Reachable int
	// Stable is the number of reachable truly-stable configurations.
	Stable int
}

// Check explores every configuration reachable from initial on g and
// verifies:
//
//  1. soundness of the stability predicate: predicate-true ⇔ no
//     configuration with different outputs is reachable;
//  2. correctness: every truly stable reachable configuration satisfies
//     Correct;
//  3. liveness: from every reachable configuration, some stable
//     configuration is reachable.
//
// It also calls invariant (if non-nil) on every reachable configuration.
// Configuration spaces grow as States^n: keep n·log(States) small.
//
//popcheck:ignore deadexport test-only exact checker; the model-level oracle builds on it
func Check(g graph.Graph, m Machine, initial []byte, invariant func(cfg []byte) error) (Result, error) {
	n := g.N()
	if len(initial) != n {
		return Result{}, fmt.Errorf("modelcheck: initial has %d states for %d nodes", len(initial), n)
	}
	space := 1
	for i := 0; i < n; i++ {
		if space > 1<<22/m.States {
			return Result{}, fmt.Errorf("modelcheck: %s: configuration space too large", m.Name)
		}
		space *= m.States
	}

	encode := func(cfg []byte) int {
		code := 0
		for _, s := range cfg {
			code = code*m.States + int(s)
		}
		return code
	}
	decode := func(code int, cfg []byte) {
		for i := n - 1; i >= 0; i-- {
			cfg[i] = byte(code % m.States)
			code /= m.States
		}
	}

	// Ordered adjacent pairs.
	var pairs [][2]int
	g.ForEachEdge(func(u, w int) {
		pairs = append(pairs, [2]int{u, w}, [2]int{w, u})
	})

	// BFS over reachable configurations.
	seen := make(map[int]bool)
	var order []int // reachable configs in discovery order
	succs := make(map[int][]int)
	start := encode(initial)
	seen[start] = true
	queue := []int{start}
	cfg := make([]byte, n)
	next := make([]byte, n)
	for len(queue) > 0 {
		code := queue[0]
		queue = queue[1:]
		order = append(order, code)
		decode(code, cfg)
		if invariant != nil {
			if err := invariant(append([]byte(nil), cfg...)); err != nil {
				return Result{}, fmt.Errorf("modelcheck: %s: invariant: %w", m.Name, err)
			}
		}
		for _, p := range pairs {
			copy(next, cfg)
			a, b := m.Step(cfg[p[0]], cfg[p[1]])
			next[p[0]], next[p[1]] = a, b
			nc := encode(next)
			succs[code] = append(succs[code], nc)
			if !seen[nc] {
				seen[nc] = true
				queue = append(queue, nc)
			}
		}
	}

	outputsOf := func(code int) string {
		decode(code, cfg)
		out := make([]byte, n)
		for i, s := range cfg {
			out[i] = m.Output(s)
		}
		return string(out)
	}
	countsOf := func(code int) []int {
		decode(code, cfg)
		counts := make([]int, m.States)
		for _, s := range cfg {
			counts[s]++
		}
		return counts
	}

	// Truly stable := every configuration reachable from it has the same
	// outputs. Computed by a forward closure per configuration (the
	// spaces here are small).
	trulyStable := make(map[int]bool, len(order))
	for _, code := range order {
		want := outputsOf(code)
		ok := true
		local := map[int]bool{code: true}
		stack := []int{code}
		for len(stack) > 0 && ok {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if outputsOf(c) != want {
				ok = false
				break
			}
			for _, nc := range succs[c] {
				if !local[nc] {
					local[nc] = true
					stack = append(stack, nc)
				}
			}
		}
		trulyStable[code] = ok
	}

	res := Result{Reachable: len(order)}
	for _, code := range order {
		pred := m.StablePredicate(countsOf(code))
		truly := trulyStable[code]
		if pred != truly {
			return res, fmt.Errorf("modelcheck: %s: stability predicate %v but truly stable %v at config %v",
				m.Name, pred, truly, decodeCopy(decode, code, n))
		}
		if truly {
			res.Stable++
			decode(code, cfg)
			out := make([]byte, n)
			for i, s := range cfg {
				out[i] = m.Output(s)
			}
			if !m.Correct(out) {
				return res, fmt.Errorf("modelcheck: %s: stable but incorrect config %v",
					m.Name, decodeCopy(decode, code, n))
			}
		}
	}

	// Liveness: every reachable configuration can reach a stable one.
	// Backward closure from the stable set.
	preds := make(map[int][]int, len(order))
	for _, code := range order {
		for _, nc := range succs[code] {
			preds[nc] = append(preds[nc], code)
		}
	}
	canStabilize := make(map[int]bool, len(order))
	var stack []int
	for _, code := range order {
		if trulyStable[code] {
			canStabilize[code] = true
			stack = append(stack, code)
		}
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[c] {
			if !canStabilize[p] {
				canStabilize[p] = true
				stack = append(stack, p)
			}
		}
	}
	for _, code := range order {
		if !canStabilize[code] {
			return res, fmt.Errorf("modelcheck: %s: config %v cannot reach any stable configuration",
				m.Name, decodeCopy(decode, code, n))
		}
	}
	return res, nil
}

func decodeCopy(decode func(int, []byte), code, n int) []byte {
	cfg := make([]byte, n)
	decode(code, cfg)
	return cfg
}
