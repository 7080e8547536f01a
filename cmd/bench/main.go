// Command bench times the simulation engine on a fixed graph ×
// scheduler × protocol × drop grid and writes the machine-readable
// BENCH_sim.json tracked at the repo root, so engine throughput is
// measured the same way PR-over-PR.
//
// Every cell is timed on the specialized kernel its execution plan
// compiles to (dense/clique uniform, weighted alias-table, node-clock,
// churn-uniform — with drop rates running inside the fast loops) and on
// the generic Source-driven reference loop, over the identical
// interaction sequence; cells whose plan is the generic kernel anyway
// (churn on the implicit clique) are timed once. The report therefore records a real fast-vs-reference
// speedup per scheduler and per drop rate, and the -compare gate guards
// each specialized loop independently.
//
// Usage:
//
//	bench                             # full grid, writes BENCH_sim.json
//	bench -quick                      # smoke-sized grid (CI)
//	bench -out "" -q                  # measure only, write nothing
//	bench -quick -compare BENCH_sim.json
//	                                  # regression gate: exit 1 if any cell's
//	                                  # specialized ns/step is >30% above the
//	                                  # committed baseline's; prints the full
//	                                  # per-cell delta table either way
//	bench -quick -compare BENCH_sim.json -summary delta.md
//	                                  # also write the delta and telemetry
//	                                  # tables as markdown (CI appends them to
//	                                  # the step summary)
package main

import (
	"flag"
	"fmt"
	"os"

	"popgraph/internal/bench"
	"popgraph/internal/table"
	"popgraph/internal/telemetry"
)

func main() {
	var (
		out     = flag.String("out", "BENCH_sim.json", "JSON report path (empty = skip)")
		seed    = flag.Uint64("seed", 2022, "base random seed for the timed trials")
		quick   = flag.Bool("quick", false, "shrink the grid for a smoke run")
		quiet   = flag.Bool("q", false, "suppress per-cell progress output")
		compare = flag.String("compare", "", "baseline BENCH_sim.json to gate against (exit 1 on regression)")
		tol     = flag.Float64("compare-tol", 0.30, "regression tolerance for -compare as a fraction (0.30 = 30%)")
		summary = flag.String("summary", "", "write the -compare delta and telemetry tables as markdown to this file (CI step summaries)")
		metrics = flag.String("metrics", "", "write the aggregated telemetry snapshot of all timed trials as JSON to this path")
		pprof   = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address while the grid runs (e.g. :6060)")
	)
	flag.Parse()
	if err := run(*out, *seed, *quick, *quiet, *compare, *tol, *summary, *metrics, *pprof); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(out string, seed uint64, quick, quiet bool, compare string, tol float64,
	summary, metrics, pprofAddr string) error {
	// Flag-consistency errors must fire before the grid runs — the full
	// grid takes minutes, and discovering a bad flag combination after
	// it would waste the whole measurement.
	if summary != "" && compare == "" {
		return fmt.Errorf("-summary requires -compare (the delta table diffs against a baseline)")
	}
	// Load the baseline before anything writes: -out and -compare may
	// name the same file (`bench -compare BENCH_sim.json` with the
	// default -out), and writing first would clobber the baseline and
	// then "gate" the fresh report against itself.
	var base bench.Report
	if compare != "" {
		if tol < 0 {
			return fmt.Errorf("-compare-tol must be >= 0, got %v", tol)
		}
		f, err := os.Open(compare)
		if err != nil {
			return err
		}
		base, err = bench.ReadJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("baseline %s: %w", compare, err)
		}
	}

	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if quiet {
		logf = nil
	}
	// The flight recorder rides every timed trial: chunk-granularity
	// accounting is cheap enough that metered numbers stay inside the
	// -compare gate's noise band, and the dispatch mix in the summary
	// proves which kernels the grid actually exercised.
	meter := new(telemetry.Counters)
	if pprofAddr != "" {
		addr, stop, err := telemetry.StartDebugServer(pprofAddr, meter)
		if err != nil {
			return err
		}
		defer stop()
		if !quiet {
			fmt.Fprintf(os.Stderr, "bench: pprof at http://%s/debug/pprof/, metrics at http://%s/metrics\n", addr, addr)
		}
	}
	rep, err := bench.RunMetered(bench.DefaultGrid(quick), seed, logf, meter)
	if err != nil {
		return err
	}
	// The startup axis: snapshot build-once vs load-many timings on a
	// large graph, recorded in the report but never gated (Compare
	// matches Results only — load time is I/O-bound and machine-noisy).
	rep.Startup, err = bench.RunStartup(bench.DefaultStartup(quick), seed, logf)
	if err != nil {
		return err
	}
	if metrics != "" {
		if err := telemetry.WriteSnapshotFile(metrics, meter); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "bench: wrote %s\n", metrics)
		}
	}

	cpu := rep.CPUModel
	if cpu == "" {
		cpu = "unknown CPU"
	}
	t := table.New(fmt.Sprintf("engine throughput (%s, %s/%s, %s, nproc %d, GOMAXPROCS %d, seed %d)",
		rep.GoVersion, rep.GOOS, rep.GOARCH, cpu, rep.NProc, rep.GOMAXPROCS, rep.Seed),
		"graph", "sched", "protocol", "drop", "engine", "n", "m",
		"spec ns/step", "iface ns/step", "gen ns/step", "speedup", "table")
	for _, m := range rep.Results {
		t.AddRow(m.Graph, m.Scheduler, m.Protocol, m.Drop,
			m.Engine+"/"+m.ProtocolEngine, m.N, m.M,
			m.Specialized.NsPerStep, m.Interface.NsPerStep, m.Generic.NsPerStep,
			fmt.Sprintf("%.2fx", m.Speedup), fmt.Sprintf("%.2fx", m.TableSpeedup))
	}
	t.WriteText(os.Stdout)
	fmt.Printf("max speedup: %.2fx  max table speedup: %.2fx\n", rep.MaxSpeedup, rep.MaxTableSpeedup)
	if len(rep.Startup) > 0 {
		st := table.New("snapshot startup (build once vs load)",
			"graph", "n", "m", "bytes", "build ms", "load ms", "speedup")
		for _, s := range rep.Startup {
			st.AddRow(s.GraphSpec, s.N, s.M, s.SnapshotBytes,
				fmt.Sprintf("%.1f", float64(s.BuildNs)/1e6),
				fmt.Sprintf("%.2f", float64(s.LoadNs)/1e6),
				fmt.Sprintf("%.0fx", s.LoadSpeedup))
		}
		st.WriteText(os.Stdout)
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "bench: wrote %s\n", out)
		}
	}

	// Top-line flight-recorder counters: what this run actually executed,
	// next to how fast.
	tt := bench.TelemetryReport(meter.Snapshot())
	tt.WriteText(os.Stdout)

	if compare != "" {
		// The full per-cell delta picture first — the gate's pass/fail
		// verdict alone hides how close each cell sits to the threshold.
		dt := bench.DeltaReport(fmt.Sprintf("per-cell delta vs %s (best-trial specialized ns/step, tolerance %.0f%%)",
			compare, 100*tol), bench.DeltaTable(rep, base, tol))
		dt.WriteText(os.Stdout)
		if summary != "" {
			f, err := os.Create(summary)
			if err != nil {
				return err
			}
			dt.WriteMarkdown(f)
			fmt.Fprintln(f)
			tt.WriteMarkdown(f)
			if err := f.Close(); err != nil {
				return err
			}
			if !quiet {
				fmt.Fprintf(os.Stderr, "bench: wrote %s\n", summary)
			}
		}
		if msgs := bench.Compare(rep, base, tol); len(msgs) > 0 {
			for _, msg := range msgs {
				fmt.Fprintln(os.Stderr, "bench: REGRESSION:", msg)
			}
			return fmt.Errorf("%d of %d cells regressed beyond %.0f%% of %s",
				len(msgs), len(rep.Results), 100*tol, compare)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "bench: no cell regressed beyond %.0f%% of %s\n",
				100*tol, compare)
		}
	}
	return nil
}
