// Command popsim runs a leader election protocol on a graph and reports
// stabilization statistics. Trials execute in parallel through the batch
// runner (internal/runner) with deterministic per-trial seeds, so the
// reported statistics are identical for any -workers value.
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
	"os"

	"popgraph"
	"popgraph/internal/runner"
	"popgraph/internal/sim"
	"popgraph/internal/stats"
	"popgraph/internal/telemetry"
)

func main() {
	var (
		graphSpec = flag.String("graph", "clique:128", "graph spec, e.g. torus:16x16 or file:PATH.popg")
		schedSpec = flag.String("scheduler", "uniform", "interaction scheduler: uniform|weighted[:exp|:degprod]|node-clock|churn:UP:DOWN")
		protoSpec = flag.String("protocol", "six-state", "protocol: six-state|identifier|identifier-regular|fast|star|majority:FRAC")
		seed      = flag.Uint64("seed", 1, "base random seed")
		trialsN   = flag.Int("trials", 5, "number of independent runs")
		maxSteps  = flag.Int64("max-steps", 0, "step cap per run (0 = automatic 72·n⁴·log₂n, sized for the slowest protocol/graph pair — set explicitly for large n if runs may not stabilize)")
		dropRate  = flag.Float64("drop", 0, "interaction drop rate in [0,1)")
		workers   = flag.Int("workers", 0, "parallel runs (0 = all cores)")
		verbose   = flag.Bool("v", false, "print every run (implies -graph-stats)")
		stats     = flag.Bool("graph-stats", false, "compute expensive graph statistics (diameter: O(n·m) BFS on large random graphs) at startup")
		metrics   = flag.String("metrics", "", "write the aggregated telemetry snapshot as JSON to this path")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. :6060)")
	)
	flag.Parse()
	if err := run(*graphSpec, *schedSpec, *protoSpec, *seed, *trialsN, *maxSteps, *dropRate, *workers, *verbose, *stats, *metrics, *pprofAddr); err != nil {
		fmt.Fprintln(os.Stderr, "popsim:", err)
		os.Exit(1)
	}
}

func run(graphSpec, schedSpec, protoSpec string, seed uint64, trials int, maxSteps int64,
	dropRate float64, workers int, verbose, graphStats bool, metrics, pprofAddr string) error {
	if maxSteps < 0 {
		return fmt.Errorf("negative -max-steps %d (0 means automatic)", maxSteps)
	}
	if trials < 1 {
		return fmt.Errorf("trials must be >= 1 (got %d)", trials)
	}
	if !(dropRate >= 0 && dropRate < 1) { // NaN fails every comparison
		return fmt.Errorf("drop rate %v outside [0, 1)", dropRate)
	}
	r := popgraph.NewRand(seed)
	g, err := popgraph.ParseGraph(graphSpec, r)
	if err != nil {
		return err
	}
	// The diameter is O(n·m) BFS for families without a closed form
	// (ws/ba/gnp), which dwarfs small sweeps on large graphs — only
	// compute it when asked.
	diam := "?"
	if verbose || graphStats {
		diam = fmt.Sprintf("%d", popgraph.Diameter(g))
	}
	fmt.Printf("graph %s: n=%d m=%d Δ=%d D=%s\n",
		g.Name(), g.N(), g.M(), popgraph.MaxDegree(g), diam)

	sched, err := popgraph.ParseScheduler(schedSpec, g, r)
	if err != nil {
		return err
	}
	if sched.Name() != "uniform" {
		fmt.Printf("scheduler %s\n", sched.Name())
	}
	factory, err := popgraph.ProtocolFactory(protoSpec, g, r)
	if err != nil {
		return err
	}
	// Flight recorder: only allocated when something consumes it — an
	// unmetered run never pays even the chunk-granularity accounting.
	var meter *telemetry.Counters
	if metrics != "" || pprofAddr != "" {
		meter = new(telemetry.Counters)
	}
	if pprofAddr != "" {
		addr, stop, err := telemetry.StartDebugServer(pprofAddr, meter)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "popsim: pprof at http://%s/debug/pprof/, metrics at http://%s/metrics\n", addr, addr)
	}
	jobs := runner.TrialJobs(g, factory, seed, trials,
		sim.Options{MaxSteps: maxSteps, DropRate: dropRate, Scheduler: sched})
	outcomes := runner.Pool{Workers: workers, Meter: meter}.Run(jobs)
	if metrics != "" {
		if err := telemetry.WriteSnapshotFile(metrics, meter); err != nil {
			return err
		}
		s := meter.Snapshot()
		fmt.Fprintf(os.Stderr, "popsim: wrote %s (%d steps, %.3g steps/sec)\n",
			metrics, s.StepsExecuted, s.StepsPerSec())
	}

	steps := make([]float64, 0, trials)
	failed, crashed := 0, 0
	for i, o := range outcomes {
		if o.Failed() {
			crashed++
			fmt.Fprintf(os.Stderr, "popsim: run %d crashed: %s\n", i, o.Err)
			continue
		}
		if verbose {
			fmt.Printf("  run %2d: steps=%-12d stabilized=%-5v leader=%d\n",
				i, o.Result.Steps, o.Result.Stabilized, o.Result.Leader)
		}
		if !o.Result.Stabilized {
			failed++
			continue
		}
		steps = append(steps, float64(o.Result.Steps))
	}
	if len(steps) == 0 {
		if crashed > 0 {
			return fmt.Errorf("all %d runs failed (%d crashed)", trials, crashed)
		}
		return fmt.Errorf("no run stabilized within the step cap")
	}
	s := stats.Summarize(steps)
	p := factory()
	fmt.Printf("protocol %s: states=%.4g\n", p.Name(), p.StateCount(g.N()))
	fmt.Printf("stabilization steps: mean=%.0f ±%.0f (95%% CI)  median=%.0f  min=%.0f  max=%.0f  runs=%d",
		s.Mean, s.CI95(), s.Median, s.Min, s.Max, s.N)
	if failed > 0 {
		fmt.Printf("  (cap hit in %d runs)", failed)
	}
	if crashed > 0 {
		fmt.Printf("  (%d runs crashed)", crashed)
	}
	fmt.Println()
	return nil
}
