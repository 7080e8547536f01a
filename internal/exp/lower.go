package exp

// This file implements the lower-bound experiments: E10 (Lemma 22
// identifier collisions), E11 (Section 6 renitent graphs), E12 (Lemmas
// 41-44 influencer growth on dense graphs) and E13 (Lemma 48 fully dense
// configurations, the first step of the Theorem 46 surgery).

import (
	"fmt"
	"math"

	"popgraph/internal/epidemic"
	"popgraph/internal/graph"
	"popgraph/internal/influence"
	"popgraph/internal/protocols/beauquier"
	"popgraph/internal/protocols/idelect"
	"popgraph/internal/renitent"
	"popgraph/internal/runner"
	"popgraph/internal/sim"
	"popgraph/internal/stats"
	"popgraph/internal/table"
	"popgraph/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E10",
		Name:  "Identifier collisions (Lemma 22, Theorem 21 failure rate)",
		Claim: "Pr[two nodes generate the same id] <= 1/2^k; Pr[duplicated max] <= n/2^k",
		Run: func(cfg Config) error {
			t := table.New("E10 identifier collisions (regular variant, k = 3*log2 n)",
				"n", "k", "runs", "dup-max observed", "bound n/2^k")
			nTrials := trials(cfg, 1500)
			for _, n := range []int{4, 6, 8} {
				g := graph.NewClique(n)
				dup := 0
				var k uint
				for trial := 0; trial < nTrials; trial++ {
					p := idelect.NewRegular()
					r := xrand.New(runner.SeedFor(cfg.Seed+uint64(n), trial))
					p.Reset(g, r)
					// Run until every node either finished generating or
					// adopted a finished identifier.
					for step := 0; step < 1<<20; step++ {
						done := true
						for v := 0; v < n; v++ {
							if !p.Finished(v) {
								done = false
								break
							}
						}
						if done {
							break
						}
						u, v := g.SampleEdge(r)
						p.Step(u, v)
					}
					k = p.K()
					// Count nodes that self-generated the maximum id.
					var max uint64
					for v := 0; v < n; v++ {
						if id := p.GeneratedID(v); id > max {
							max = id
						}
					}
					count := 0
					for v := 0; v < n; v++ {
						if p.GeneratedID(v) == max {
							count++
						}
					}
					if count > 1 {
						dup++
					}
				}
				bound := float64(n) / math.Pow(2, float64(k))
				t.AddRow(n, k, nTrials,
					fmt.Sprintf("%d (%.4f)", dup, float64(dup)/float64(nTrials)), bound)
			}
			cfg.render(t)
			return nil
		},
	})

	register(Experiment{
		ID:    "E11",
		Name:  "Renitent graphs (Lemmas 37-38, Theorems 34 and 39)",
		Claim: "Y(C) >= c*l*m w.p. >= 1/2; leader election and broadcast on Thm-39 graphs scale with the target T",
		Run: func(cfg Config) error {
			r := xrand.New(cfg.Seed + 43)
			nTrials := trials(cfg, 24)
			t := table.New("E11 cycle-cover isolation times (Lemma 37)",
				"n", "l", "m", "Y mean", "Y/(l*m)", "Pr[Y >= l*m/4]")
			for _, n := range ladder(cfg, []int{64, 128, 256}) {
				g := graph.Cycle(n)
				c := renitent.CycleCover(n)
				ys := make([]float64, nTrials)
				atLeast := 0
				lm := float64(c.Radius) * float64(g.M())
				for i := range ys {
					ys[i] = float64(renitent.IsolationTime(g, c, r, 1<<40))
					if ys[i] >= lm/4 {
						atLeast++
					}
				}
				s := stats.Summarize(ys)
				t.AddRow(n, c.Radius, g.M(), s.Mean, s.Mean/lm,
					fmt.Sprintf("%d/%d", atLeast, nTrials))
			}
			cfg.render(t)

			// Theorem 39: both broadcast time and stable leader election
			// time scale linearly with the construction target T.
			t2 := table.New("E11b Theorem 39 graphs: time scales with target T",
				"target T", "n'", "m'", "B(measured)", "B/T", "LE steps (identifier)", "LE/T")
			base := 16
			nf := float64(base)
			elTrials := trials(cfg, 5)
			var ts, les []float64
			for _, mult := range []float64{1, 2, 4} {
				target := mult * nf * nf
				g, _, err := renitent.Theorem39Graph(base, target, r)
				if err != nil {
					return err
				}
				b := epidemic.EstimateB(g, r, epidemic.Options{Sources: 2, Trials: trials(cfg, 5)})
				m := MeasureSteps(g, func() sim.Protocol { return idelect.New() },
					cfg.Seed+47, elTrials, 0)
				t2.AddRow(target, g.N(), g.M(), b, b/target, m.Steps.Mean, m.Steps.Mean/target)
				ts = append(ts, target)
				les = append(les, m.Steps.Mean)
			}
			cfg.render(t2)
			fitRow(cfg, "E11/election-vs-target", ts, les)
			return nil
		},
	})

	register(Experiment{
		ID:    "E12",
		Name:  "Influencer growth on dense graphs (Lemmas 41-44)",
		Claim: "|I_t(v)| <= n^eps and O(logn) internal interactions at t = c*n*logn; |S(t)| >= n^{1-eps}",
		Run: func(cfg Config) error {
			r := xrand.New(cfg.Seed + 53)
			t := table.New("E12 influencer sets on G(n,1/2)",
				"n", "c", "t", "max |I_t(v)|", "n^0.75", "max internal", "4*ln n", "|S(t)|", "sqrt(n)")
			for _, n := range ladder(cfg, []int{128, 256, 512}) {
				g, err := graph.Gnp(n, 0.5, r)
				if err != nil {
					return err
				}
				for _, c := range []float64{0.02, 0.05, 0.1} {
					steps := int64(c * float64(n) * math.Log(float64(n)))
					sched := influence.RecordSchedule(g, steps, r)
					maxSize, maxInternal := 0, 0
					for v := 0; v < n; v += n / 16 {
						res := influence.ReverseInfluence(g, sched, v)
						if res.Size > maxSize {
							maxSize = res.Size
						}
						if res.Internal > maxInternal {
							maxInternal = res.Internal
						}
					}
					remaining := influence.NonInteracted(g, steps, r)
					t.AddRow(n, c, steps, maxSize, math.Pow(float64(n), 0.75),
						maxInternal, 4*math.Log(float64(n)),
						remaining, math.Sqrt(float64(n)))
				}
			}
			cfg.render(t)
			return nil
		},
	})

	register(Experiment{
		ID:    "E13",
		Name:  "Fully dense configurations (Lemma 48, surgery step 1)",
		Claim: "the six-state protocol reaches a fully alpha-dense configuration w.r.t. its producible states in O(n) steps on G(n,p)",
		Run: func(cfg Config) error {
			r := xrand.New(cfg.Seed + 59)
			t := table.New("E13 densities on G(n,1/2)",
				"n", "best min-density alpha", "attained at step", "step/n")
			for _, n := range ladder(cfg, []int{128, 256, 512, 1024}) {
				g, err := graph.Gnp(n, 0.5, r)
				if err != nil {
					return err
				}
				p := beauquier.New()
				tracker := &influence.DensityTracker{}
				sim.Run(g, p, r, sim.Options{
					MaxSteps:     int64(40 * n),
					Observer:     tracker,
					ObserveEvery: int64(n / 8),
				})
				alpha, step := influence.BestFullDensity(tracker.Samples)
				t.AddRow(n, alpha, step, float64(step)/float64(n))
			}
			cfg.render(t)
			return nil
		},
	})
}
