// Command popsim runs a leader election protocol on a graph and reports
// stabilization statistics. It is a one-cell sweep: its flags make an
// internal/sweep spec with one graph, one scheduler, one protocol and
// one drop rate, which the sweep pipeline validates, builds and runs in
// parallel with deterministic per-trial seeds. Its trials therefore
// equal cmd/sweep's records for the same flags, and the reported
// statistics are identical for any -workers value.
//
// Usage:
//
//	popsim -graph torus:16x16 -protocol fast -trials 10 -seed 42
//	popsim -graph ba:256:3 -scheduler churn:64:16 -protocol six-state
//
// Expensive graph statistics (the diameter is an O(n·m) BFS on large
// random graphs) are skipped by default and printed as "D=?"; pass
// -graph-stats (or -v) to compute them.
//
// Flight-recorder flags: -metrics PATH writes an aggregated telemetry
// snapshot (steps, RNG refills, kernel dispatch mix, latency
// histograms) as JSON after the runs; -pprof ADDR serves
// net/http/pprof plus the live snapshot at /metrics while they run.
// Telemetry never touches the random stream, so results are identical
// with or without it.
//
// Graphs: clique:N cycle:N path:N star:N hypercube:D torus:RxC grid:RxC
// lollipop:K:P barbell:K:P gnp:N:P regular:N:D ws:N:K:BETA ba:N:M, or a
// preprocessed binary snapshot: file:PATH.popg (build one with
// cmd/preprocess).
// Protocols: six-state | identifier | identifier-regular | fast | star | majority:FRAC.
// Schedulers: uniform | weighted[:exp|:degprod] |
// node-clock | churn:UP:DOWN.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"popgraph"
	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/stats"
	"popgraph/internal/sweep"
	"popgraph/internal/telemetry"
)

// options are the flags that shape popsim's output and execution but
// not its trials.
type options struct {
	workers             int
	verbose, graphStats bool
	metrics, pprofAddr  string
}

func main() {
	var (
		spec sweep.Spec
		o    options
	)
	graphSpec := flag.String("graph", "clique:128", "graph spec, e.g. torus:16x16 or file:PATH.popg")
	schedSpec := flag.String("scheduler", "uniform", "interaction scheduler: uniform|weighted[:exp|:degprod]|node-clock|churn:UP:DOWN")
	protoSpec := flag.String("protocol", "six-state", "protocol: six-state|identifier|identifier-regular|fast|star|majority:FRAC")
	dropRate := flag.Float64("drop", 0, "interaction drop rate in [0,1)")
	flag.Uint64Var(&spec.Seed, "seed", 1, "base random seed")
	flag.IntVar(&spec.Trials, "trials", 5, "number of independent runs")
	flag.Int64Var(&spec.MaxSteps, "max-steps", 0, "step cap per run (0 = automatic 72·n⁴·log₂n, sized for the slowest protocol/graph pair — set explicitly for large n if runs may not stabilize)")
	flag.IntVar(&o.workers, "workers", 0, "parallel runs (0 = all cores)")
	flag.BoolVar(&o.verbose, "v", false, "print every run (implies -graph-stats)")
	flag.BoolVar(&o.graphStats, "graph-stats", false, "compute expensive graph statistics (diameter: O(n·m) BFS on large random graphs) at startup")
	flag.StringVar(&o.metrics, "metrics", "", "write the aggregated telemetry snapshot as JSON to this path")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof and /metrics on this address (e.g. :6060)")
	flag.Parse()
	spec.Graphs = []string{*graphSpec}
	spec.Schedulers = []string{*schedSpec}
	spec.Protocols = []string{*protoSpec}
	spec.DropRates = []float64{*dropRate}
	if err := run(spec, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "popsim:", err)
		os.Exit(1)
	}
}

// run builds and executes the one-cell spec and writes the report to
// stdout. Every refusal comes from spec.Build, before any trial runs.
func run(spec sweep.Spec, o options, stdout io.Writer) error {
	tasks, err := spec.Build()
	if err != nil {
		return err
	}
	t := tasks[0]
	g := t.Graph
	// The diameter is O(n·m) BFS for families without a closed form
	// (ws/ba/gnp), which dwarfs small sweeps on large graphs — only
	// compute it when asked.
	diam := "?"
	if o.verbose || o.graphStats {
		diam = fmt.Sprintf("%d", popgraph.Diameter(g))
	}
	fmt.Fprintf(stdout, "graph %s: n=%d m=%d Δ=%d D=%s\n",
		t.GraphName, g.N(), g.M(), popgraph.MaxDegree(g), diam)
	if t.Scheduler != "uniform" {
		fmt.Fprintf(stdout, "scheduler %s\n", t.Scheduler)
	}
	// Flight recorder: only allocated when something consumes it — an
	// unmetered run never pays even the chunk-granularity accounting.
	var meter *telemetry.Counters
	if o.metrics != "" || o.pprofAddr != "" {
		meter = new(telemetry.Counters)
	}
	if o.pprofAddr != "" {
		addr, stop, err := telemetry.StartDebugServer(o.pprofAddr, meter)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "popsim: pprof at http://%s/debug/pprof/, metrics at http://%s/metrics\n", addr, addr)
	}
	steps := make([]float64, 0, spec.Trials)
	failed, crashed := 0, 0
	sweep.ExecuteStream(tasks, runner.Pool{Workers: o.workers, Meter: meter}, func(rec results.Record) {
		if rec.Error != "" {
			crashed++
			fmt.Fprintf(os.Stderr, "popsim: run %d crashed: %s\n", rec.Trial, rec.Error)
			return
		}
		if o.verbose {
			fmt.Fprintf(stdout, "  run %2d: steps=%-12d stabilized=%-5v leader=%d\n",
				rec.Trial, rec.Steps, rec.Stabilized, rec.Leader)
		}
		if !rec.Stabilized {
			failed++
			return
		}
		steps = append(steps, float64(rec.Steps))
	})
	if o.metrics != "" {
		if err := telemetry.WriteSnapshotFile(o.metrics, meter); err != nil {
			return err
		}
		s := meter.Snapshot()
		fmt.Fprintf(os.Stderr, "popsim: wrote %s (%d steps, %.3g steps/sec)\n",
			o.metrics, s.StepsExecuted, s.StepsPerSec())
	}

	if len(steps) == 0 {
		if crashed > 0 {
			return fmt.Errorf("all %d runs failed (%d crashed)", spec.Trials, crashed)
		}
		return fmt.Errorf("no run stabilized within the step cap")
	}
	s := stats.Summarize(steps)
	fmt.Fprintf(stdout, "protocol %s: states=%.4g\n", t.Protocol, t.Jobs[0].New().StateCount(g.N()))
	fmt.Fprintf(stdout, "stabilization steps: mean=%.0f ±%.0f (95%% CI)  median=%.0f  min=%.0f  max=%.0f  runs=%d",
		s.Mean, s.CI95(), s.Median, s.Min, s.Max, s.N)
	if failed > 0 {
		fmt.Fprintf(stdout, "  (cap hit in %d runs)", failed)
	}
	if crashed > 0 {
		fmt.Fprintf(stdout, "  (%d runs crashed)", crashed)
	}
	fmt.Fprintln(stdout)
	return nil
}
