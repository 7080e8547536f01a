package exp

// E19 exercises the extension module: exact four-state majority on
// graphs, the "other fundamental problem" the paper's conclusions suggest
// for the same token techniques. The stabilization time should scale like
// the six-state leader election protocol's O(H(G)·n·log n) (both are
// governed by token meeting/hitting times) and grow as the vote margin
// shrinks (more strong-token annihilations must happen sequentially).

import (
	"fmt"
	"math"

	"popgraph/internal/graph"
	"popgraph/internal/protocols/majority"
	"popgraph/internal/sim"
	"popgraph/internal/table"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Name:  "Extension: exact 4-state majority on graphs",
		Claim: "conclusions: majority via the same token techniques; O(H*nlogn)-scale stabilization, slower for small margins",
		Run: func(cfg Config) error {
			nTrials := trials(cfg, 6)
			t := table.New("E19 majority stabilization",
				"graph", "n", "margin", "steps(mean)", "±95%", "steps/(H*nlogn)")
			for _, n := range ladder(cfg, []int{16, 32, 64, 128}) {
				for _, g := range []graph.Graph{graph.NewClique(n), graph.Cycle(n)} {
					gs := measureGraphStats(g, cfg.Seed+97)
					for _, margin := range []int{2, n / 4} {
						ones := (n + margin) / 2
						if 2*ones == n || ones >= n {
							continue
						}
						in := make([]bool, n)
						for j := 0; j < ones; j++ {
							in[j] = true
						}
						m := MeasureSteps(g, func() sim.Protocol { return majority.New(in) },
							cfg.Seed+uint64(n), nTrials, 0)
						if m.Stabilized != m.Trials {
							return fmt.Errorf("majority did not stabilize on %s", g.Name())
						}
						shape := gs.h * float64(n) * math.Log2(float64(n))
						t.AddRow(g.Name(), n, margin, m.Steps.Mean, m.Steps.CI95(), m.Steps.Mean/shape)
					}
				}
			}
			cfg.render(t)
			return nil
		},
	})
}
