package main

import (
	"fmt"
	"strings"

	"popgraph/internal/sweep"
)

// workload is one sweep the benchmark runs from spec file to JSONL on
// disk. Sizes were chosen so one repetition takes a few seconds on a
// 2-core host, so that several fit in one measured run, and so that the
// total work of a repetition varies little with the workload seed: the
// run-to-run spread the bounds are calibrated from is then dominated by
// timing noise, not by which instance the seed drew.
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json
	// carries it verbatim.
	why string
	// grid returns the sweep grid without its seed; smoke shrinks it to
	// toy size for tests.
	grid func(smoke bool) sweep.Spec
	// sharded runs the grid as the checkpoint sequence: shard 0 of 2
	// stopped halfway by -stop-after and resumed from its manifest, then
	// shard 1, then -merge.
	sharded bool
	// allStabilize requires every trial to stabilize before its cap.
	allStabilize bool
}

// replicatesGrid is shared by the replicates and checkpoint workloads:
// tiny graphs whose trials run a few hundred steps, so per-trial fixed
// costs dominate.
func replicatesGrid(trials int) sweep.Spec {
	return sweep.Spec{
		Trials:    trials,
		Graphs:    []string{"clique:N", "cycle:N", "torus:4xN", "hypercube:4"},
		Sizes:     []int{8, 16},
		Protocols: []string{"six-state", "identifier", "majority:0.75"},
	}
}

var workloads = []workload{
	{
		name: "table1",
		why:  "the paper's Table 1 graph families and protocols; long trials on cache-resident graphs, so the sim kernels do nearly all the work",
		grid: func(smoke bool) sweep.Spec {
			if smoke {
				return sweep.Spec{
					Trials:    2,
					Graphs:    []string{"clique:N", "cycle:N", "torus:4xN", "lollipop:8:8"},
					Sizes:     []int{8},
					Protocols: []string{"six-state", "identifier", "fast"},
				}
			}
			// Lollipops are fixed small instances: on larger ones the fast
			// protocol's streak-clock height (rounded from a random
			// broadcast-time estimate) flips between seeds and doubles a
			// cell's work, which would swamp the timing spread.
			return sweep.Spec{
				Trials:    192,
				Graphs:    []string{"clique:N", "cycle:N", "torus:4xN", "lollipop:16:16", "lollipop:24:24"},
				Sizes:     []int{16, 24, 32},
				Protocols: []string{"six-state", "identifier", "fast"},
			}
		},
		allStabilize: true,
	},
	{
		name: "replicates",
		why:  "105k trials of ~700 steps each, so per-trial fixed costs (protocol construction, compile, dispatch, record encoding) dominate",
		grid: func(smoke bool) sweep.Spec {
			if smoke {
				return replicatesGrid(5)
			}
			return replicatesGrid(5000)
		},
		allStabilize: true,
	},
	{
		name: "bigraph",
		why:  "a 10^6-node small-world graph under all four schedulers with drops: set-up dominated by graph and scheduler construction, kernels far outside the caches",
		grid: func(smoke bool) sweep.Spec {
			spec := sweep.Spec{
				Trials:     1,
				Graphs:     []string{"ws:1000000:10:0.1"},
				Schedulers: []string{"uniform", "weighted:exp", "node-clock", "churn:64:16"},
				Protocols:  []string{"six-state"},
				DropRates:  []float64{0, 0.1},
				// Long enough that per-trial set-up and the straggler at the
				// end of the stream are a small part of the run phase, which
				// msteps_per_s times.
				MaxSteps: 3_000_000,
			}
			if smoke {
				spec.Graphs = []string{"ws:2000:10:0.1"}
				spec.MaxSteps = 20_000
			}
			return spec
		},
	},
	{
		name: "checkpoint",
		why:  "the replicates grid run as two checkpointed shards, one stopped and resumed, then merged: exercises manifest rewrites, resume and merge",
		grid: func(smoke bool) sweep.Spec {
			if smoke {
				return replicatesGrid(4)
			}
			return replicatesGrid(240)
		},
		sharded:      true,
		allStabilize: true,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// specFor returns the workload's grid seeded from the benchmark seed.
// Each workload gets its own stream, so adding or reordering workloads
// never changes another's inputs.
func specFor(w workload, seed uint64, smoke bool) sweep.Spec {
	spec := w.grid(smoke)
	spec.Name = w.name
	h := uint64(14695981039346656037) // FNV-1a of the name
	for i := 0; i < len(w.name); i++ {
		h = (h ^ uint64(w.name[i])) * 1099511628211
	}
	spec.Seed = splitmix(seed ^ h)
	return spec
}

// splitmix is the splitmix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// e2eMetric describes one end-to-end metric: what a user running a
// sweep sees. floor is the absolute change -compare always tolerates,
// for metrics whose value is small enough that timer and scheduler
// jitter alone exceed the relative bound.
type e2eMetric struct {
	name, unit, better string
	floor              float64
}

// The sweep's peak RSS is not among them. The Go collector's timing alone
// moves it by a quarter on bigraph (371, 467 or 607 MB for one seed),
// more than any bound may be; and a child's ru_maxrss on Linux also
// counts the parent's peak at exec, so this process's own traced runs
// would leak into it. sweep.heap_mb covers the build's memory instead.
var e2eMetrics = []e2eMetric{
	{"wall_s", "s", "lower", 0.05},
	{"setup_s", "s", "lower", 0.05},
	{"msteps_per_s", "Msteps/s", "higher", 0},
	{"cpu_s", "s", "lower", 0.05},
}

// layerMetric describes one per-layer metric.
type layerMetric struct {
	name, unit, better string
}

// engineLabels are the kernel dispatch labels internal/sim reports,
// "<scheduler-engine>/<protocol-engine>"; sim.runs.other counts any
// label outside this list.
var engineLabels = []string{
	"dense-uniform/table", "dense-uniform/step",
	"clique-uniform/table", "clique-uniform/step",
	"weighted/table", "weighted/step",
	"node-clock/table", "node-clock/step",
	"generic/step",
}

var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"sweep.parse_s", "s", "lower"},
		{"sweep.build_s", "s", "lower"},
		{"sweep.heap_mb", "MB", "lower"},
		{"graph.build_s", "s", "lower"},
		{"graph.edges", "count", "lower"},
		{"sched.build_s", "s", "lower"},
		{"protocols.factory_s", "s", "lower"},
		{"protocols.new_s", "s", "lower"},
		{"protocols.new_ns_mean", "ns", "lower"},
		{"sim.compile_s", "s", "lower"},
		{"sim.compile_ns_mean", "ns", "lower"},
		{"sim.run_s", "s", "lower"},
		{"sim.ns_per_step", "ns", "lower"},
		{"sim.steps", "count", "lower"},
		{"sim.chunks_per_mstep", "1/Msteps", "lower"},
		{"sim.refills_per_mstep", "1/Msteps", "lower"},
		{"sim.drops", "count", "lower"},
	}
	for _, l := range engineLabels {
		better := "lower"
		if strings.HasSuffix(l, "/table") {
			better = "higher" // the fused transition-table kernels are the fast path
		}
		ms = append(ms, layerMetric{engineMetric(l), "count", better})
	}
	return append(ms,
		layerMetric{"sim.runs.other", "count", "lower"},
		layerMetric{"runner.stream_s", "s", "lower"},
		layerMetric{"runner.busy_frac", "frac", "higher"},
		layerMetric{"runner.idle_s", "s", "lower"},
		layerMetric{"runner.trial_us_p50", "us", "lower"},
		layerMetric{"runner.trial_us_tail", "us", "lower"},
		layerMetric{"results.write_s", "s", "lower"},
		layerMetric{"results.aggregate_s", "s", "lower"},
		layerMetric{"results.read_s", "s", "lower"},
		layerMetric{"results.bytes", "bytes", "lower"},
		layerMetric{"shard.append_s", "s", "lower"},
		layerMetric{"shard.manifest_writes", "count", "lower"},
		layerMetric{"shard.manifest_bytes", "bytes", "lower"},
		layerMetric{"shard.resume_s", "s", "lower"},
		layerMetric{"shard.merge_s", "s", "lower"},
		layerMetric{"trace.wall_s", "s", "lower"},
		layerMetric{"trace.overhead_frac", "frac", "lower"},
		layerMetric{"trace.residual_frac", "frac", "lower"},
	)
}()

// engineMetric names the per-layer count of runs on a dispatch label:
// "weighted/table" becomes "sim.runs.weighted.table".
func engineMetric(label string) string {
	return "sim.runs." + strings.ReplaceAll(label, "/", ".")
}
