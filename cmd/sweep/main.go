// Command sweep executes a declarative experiment grid — graph families
// × sizes × protocols × drop rates — in parallel across all cores,
// writes one JSON Lines record per trial, and prints a per-cell summary
// table. Per-trial seeds are derived from the grid position, so the
// .jsonl log and the table are identical for any -workers value (the
// only host-dependent record fields are the trailing wall-time ones,
// which -no-timing strips when byte comparisons are the point).
//
// Usage:
//
//	sweep -graphs clique:N,cycle:N,torus:NxN -sizes 16,32 \
//	      -protocols six-state,identifier,fast -trials 5 -seed 42 \
//	      -out results.jsonl
//	sweep -graphs ws:N:4:0.1,ba:N:3 -sizes 64,128 \
//	      -schedulers uniform,weighted:exp,churn:64:16 -protocols six-state
//	sweep -spec sweep.json -workers 4 -markdown
//	sweep -spec sweep.json -metrics metrics.json \
//	      -journal journal.jsonl -trajectory traj.jsonl -pprof :6060
//
// Sharded execution splits the trial grid across processes or machines
// (cell g of the task-major grid runs on shard g mod m) and merges the
// shard logs back into the byte-identical single-process output:
//
//	sweep -spec sweep.json -shard 0/4 -checkpoint s0.manifest.json \
//	      -out s0.jsonl -no-timing          # one per shard, 0/4 .. 3/4
//	sweep -merge -out merged.jsonl s0.manifest.json ... s3.manifest.json
//
// A shard killed mid-sweep resumes from its checkpoint: rerun the same
// command and it keeps every complete line of its records file and
// continues after the last one instead of restarting. The manifest is a
// header that counts the records file's lines, finalized when the shard
// exits. -merge verifies the manifests describe one complete sweep (same
// spec hash, every shard present and finalized with its full plan),
// replaces -out only when the merge succeeds, and prints the same
// summary table the solo run would.
//
// The -spec file is JSON with fields name, seed, trials, graphs, sizes,
// schedulers, protocols, drop_rates, max_steps (see internal/sweep);
// explicit flags override the corresponding spec fields. A throttled
// done/total (ETA …) progress line streams to stderr unless -q; the
// summary table goes to stdout. Records stream to a shard.Writer in grid
// order as trials finish, so memory stays O(cells) however many trials
// the grid has: a solo run opens it without a manifest, so the file is
// buffered, and a checkpointed run writes each line as it completes.
//
// Flight-recorder flags: -metrics writes an aggregated telemetry
// snapshot (steps, chunks, RNG refills, drops, kernel dispatch mix,
// latency histograms) as JSON; -journal writes a phase-span run journal
// as JSONL; -trajectory writes per-trial (step, leaders, gap) curves as
// JSONL; -pprof serves net/http/pprof plus the live snapshot at
// /metrics, which the pool updates as each dispatch unit completes.
// Telemetry never touches the random stream, so the records stay
// byte-identical with or without it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/shard"
	"popgraph/internal/sweep"
	"popgraph/internal/telemetry"
)

// cliConfig carries the parsed flag set into run.
type cliConfig struct {
	specFile    string
	graphs      string
	sizes       string
	scheds      string
	protocols   string
	drops       string
	trials      int
	trialsSet   bool
	seed        uint64
	seedSet     bool
	maxSteps    int64
	maxStepsSet bool
	workers     int
	out         string
	markdown    bool
	quiet       bool
	metrics     string
	journal     string
	trajectory  string
	pprofAddr   string
	shardSpec   string
	checkpoint  string
	merge       bool
	noTiming    bool
	stopAfter   int
}

// errStopped reports a deliberate -stop-after exit; main maps it to
// exit code 3 so scripts can tell "simulated kill" from real failures.
var errStopped = errors.New("stopped by -stop-after (checkpoint is resumable)")

func main() {
	c, args, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and the usage
	}
	if err := run(c, args); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		if errors.Is(err, errStopped) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// parseArgs parses the command line into a cliConfig and the remaining
// arguments; a parse error has already been printed with the usage.
func parseArgs(argv []string) (cliConfig, []string, error) {
	var c cliConfig
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.StringVar(&c.specFile, "spec", "", "JSON sweep spec file (flags override its fields)")
	fs.StringVar(&c.graphs, "graphs", "", "comma-separated graph templates, N = size rung (e.g. clique:N,torus:NxN)")
	fs.StringVar(&c.sizes, "sizes", "", "comma-separated size ladder substituted for N")
	fs.StringVar(&c.scheds, "schedulers", "", "comma-separated schedulers (uniform|weighted[:exp|:degprod]|node-clock|churn:UP:DOWN)")
	fs.StringVar(&c.protocols, "protocols", "", "comma-separated protocols (six-state|identifier|identifier-regular|fast|star|majority:FRAC)")
	fs.StringVar(&c.drops, "drop", "", "comma-separated drop rates in [0,1)")
	fs.IntVar(&c.trials, "trials", 0, "trials per grid cell, >= 1 (default: the spec file's, else 5)")
	fs.Uint64Var(&c.seed, "seed", 1, "base random seed (overrides the spec file's)")
	fs.Int64Var(&c.maxSteps, "max-steps", 0, "step cap per trial (0 = automatic 72·n⁴·log₂n — set explicitly for large n if trials may not stabilize)")
	fs.IntVar(&c.workers, "workers", 0, "parallel trials (0 = all cores)")
	fs.StringVar(&c.out, "out", "sweep.jsonl", "JSON Lines output path (empty = skip)")
	fs.BoolVar(&c.markdown, "markdown", false, "render the summary table as Markdown")
	fs.BoolVar(&c.quiet, "q", false, "suppress progress output")
	fs.StringVar(&c.metrics, "metrics", "", "write the aggregated telemetry snapshot as JSON to this path")
	fs.StringVar(&c.journal, "journal", "", "write the phase-span run journal as JSONL to this path")
	fs.StringVar(&c.trajectory, "trajectory", "", "write per-trial (step, leaders, gap) trajectories as JSONL to this path")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof and /metrics on this address (e.g. :6060)")
	fs.StringVar(&c.shardSpec, "shard", "", "run only shard i of m of the trial grid, as i/m (e.g. 0/4)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "checkpoint manifest path: write it at start and exit, resume from it and the -out file's complete lines if present")
	fs.BoolVar(&c.merge, "merge", false, "merge mode: combine shard runs (args = manifest files) into -out and print the summary table")
	fs.BoolVar(&c.noTiming, "no-timing", false, "strip the host-dependent wall-time fields from records (byte-stable logs)")
	fs.IntVar(&c.stopAfter, "stop-after", 0, "stop after this many newly completed cells with exit code 3 (kill/resume testing)")
	if err := fs.Parse(argv); err != nil {
		return c, nil, err
	}
	// 0 is a valid -seed and -max-steps, and a -trials below 1 or a
	// negative -max-steps must reach Spec.Validate, so "was the flag
	// given" comes from the flag set, not from a sentinel value.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "trials":
			c.trialsSet = true
		case "seed":
			c.seedSet = true
		case "max-steps":
			c.maxStepsSet = true
		}
	})
	return c, fs.Args(), nil
}

func run(c cliConfig, args []string) error {
	if c.merge {
		return runMerge(c, args)
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q (manifests are arguments to -merge only)", args)
	}
	spec := sweep.Spec{Seed: 1, Trials: 5}
	if c.specFile != "" {
		data, err := os.ReadFile(c.specFile)
		if err != nil {
			return err
		}
		spec, err = sweep.ParseJSON(data)
		if err != nil {
			return err
		}
	}
	if c.graphs != "" {
		spec.Graphs = splitList(c.graphs)
	}
	if c.sizes != "" {
		ns, err := parseList(c.sizes, strconv.Atoi)
		if err != nil {
			return fmt.Errorf("bad -sizes: %w", err)
		}
		spec.Sizes = ns
	}
	if c.scheds != "" {
		spec.Schedulers = splitList(c.scheds)
	}
	if c.protocols != "" {
		spec.Protocols = splitList(c.protocols)
	}
	if c.drops != "" {
		qs, err := parseList(c.drops, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
		if err != nil {
			return fmt.Errorf("bad -drop: %w", err)
		}
		spec.DropRates = qs
	}
	if c.trialsSet {
		spec.Trials = c.trials
	}
	if c.seedSet {
		spec.Seed = c.seed
	}
	if c.maxStepsSet {
		spec.MaxSteps = c.maxSteps
	}

	sharded := c.shardSpec != "" || c.checkpoint != ""
	shardIdx, shardOf := 0, 1
	if c.shardSpec != "" {
		var err error
		shardIdx, shardOf, err = parseShard(c.shardSpec)
		if err != nil {
			return err
		}
	}
	if sharded {
		if c.out == "" {
			return fmt.Errorf("-shard/-checkpoint need -out (the records file is the shard's product)")
		}
		if c.trajectory != "" {
			// Trajectory indices are flat positions in the full grid; a
			// shard-local file would silently misnumber them.
			return fmt.Errorf("-trajectory is not supported with -shard/-checkpoint")
		}
	}
	if c.stopAfter < 0 {
		return fmt.Errorf("negative -stop-after")
	}
	if c.stopAfter > 0 && c.checkpoint == "" {
		return fmt.Errorf("-stop-after without -checkpoint would discard completed work")
	}

	// Flight recorder: the meter exists whenever anything consumes it; a
	// nil journal is a valid no-op recorder, so its spans are emitted
	// unconditionally.
	var meter *telemetry.Counters
	if c.metrics != "" || c.pprofAddr != "" {
		meter = new(telemetry.Counters)
	}
	var journal *telemetry.Journal
	if c.journal != "" {
		var err error
		journal, err = telemetry.OpenJournal(c.journal)
		if err != nil {
			return err
		}
	}
	var trajLog *telemetry.TrajectoryLog
	if c.trajectory != "" {
		var err error
		trajLog, err = telemetry.OpenTrajectoryLog(c.trajectory)
		if err != nil {
			return err
		}
		defer trajLog.Close() // for error paths; the success path checks Close
	}
	if c.pprofAddr != "" {
		addr, stop, err := telemetry.StartDebugServer(c.pprofAddr, meter)
		if err != nil {
			return err
		}
		defer stop()
		if !c.quiet {
			fmt.Fprintf(os.Stderr, "sweep: pprof at http://%s/debug/pprof/, metrics at http://%s/metrics\n", addr, addr)
		}
	}

	endBuild := journal.Span("build", map[string]any{"graphs": len(spec.GraphSpecs())})
	tasks, err := spec.Build()
	endBuild()
	if err != nil {
		return err
	}
	plan, err := shard.PlanOne(spec, shardIdx, shardOf)
	if err != nil {
		return err
	}
	acc := results.NewAccumulator()

	// The record sink receives records in grid order as trials finish.
	// Without -checkpoint it has no manifest, so it buffers and never
	// resumes.
	var sink *shard.Writer
	skip := 0
	if c.out != "" {
		sink, skip, err = shard.Open(c.out, c.checkpoint, shard.Manifest{
			Schema:     shard.ManifestSchema,
			SpecHash:   shard.SpecHash(spec),
			SpecName:   spec.Name,
			Seed:       spec.Seed,
			Shard:      shardIdx,
			Of:         shardOf,
			TotalCells: plan.Total,
			Records:    recordsRelPath(c.out, c.checkpoint),
			NoTiming:   c.noTiming,
		})
		if err != nil {
			return err
		}
		if skip > 0 {
			// Fold the resumed prefix into the aggregate so the shard's
			// summary table covers the whole shard, not just this leg.
			if err := readInto(c.out, acc); err != nil {
				sink.Close()
				return err
			}
			if !c.quiet {
				fmt.Fprintf(os.Stderr, "sweep: resuming shard %d/%d from checkpoint: %d of %d cells done\n",
					shardIdx, shardOf, skip, len(plan.Cells))
			}
		}
	}

	cells := plan.Cells[skip:]
	stopped := false
	if c.stopAfter > 0 && c.stopAfter < len(cells) {
		cells = cells[:c.stopAfter]
		stopped = true
	}
	if !c.quiet {
		if sharded {
			fmt.Fprintf(os.Stderr, "sweep: shard %d/%d: %d of %d grid trials (%d this leg)\n",
				shardIdx, shardOf, len(plan.Cells), plan.Total, len(cells))
		} else {
			fmt.Fprintf(os.Stderr, "sweep: %d cells × %d trials = %d runs\n",
				len(tasks), spec.Trials, plan.Total)
		}
	}

	var trajs []*sweep.Trajectory
	if trajLog != nil {
		trajs = sweep.AttachTrajectories(tasks)
	}
	pool := runner.Pool{Workers: c.workers, Meter: meter, Journal: journal}
	if !c.quiet {
		pool.Progress = etaProgress(time.Now())
	}

	// Crashed trials (e.g. a protocol rejecting its graph at Reset) are
	// recorded, not fatal; surface them so a silent grid cell of failures
	// is visible even with -q.
	crashed := 0
	var sinkErr error
	endWrite := journal.Span("write", map[string]any{"cells": len(cells), "path": c.out})
	execErr := shard.Execute(tasks, cells, pool, func(cell shard.Cell, rec results.Record) {
		if c.noTiming {
			rec.ElapsedNs, rec.QueueWaitNs = 0, 0
		}
		acc.Add(rec)
		if rec.Failed() {
			if crashed == 0 {
				fmt.Fprintf(os.Stderr, "sweep: trial crashed: %s × %s trial %d: %s\n",
					rec.Graph, rec.Protocol, rec.Trial, rec.Error)
			}
			crashed++
		}
		if sink != nil && sinkErr == nil {
			sinkErr = sink.Append(cell.Global, rec)
		}
		if trajLog != nil {
			// Trajectories are unsharded, so cells arrive in grid
			// order and cell.Global is the trial's flat index.
			trajLog.WriteTrial(trajs[cell.Global].Samples())
			trajs[cell.Global] = nil
		}
	})
	endWrite()
	if sink != nil {
		if err := sink.Close(); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	if execErr != nil {
		return execErr
	}
	if sinkErr != nil {
		return sinkErr
	}
	if crashed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d trials crashed (error field in the results log)\n",
			crashed, len(cells))
	}
	if c.out != "" && !c.quiet {
		fmt.Fprintf(os.Stderr, "sweep: wrote %d records to %s\n", len(cells), c.out)
	}

	if trajLog != nil {
		if err := trajLog.Close(); err != nil {
			return err
		}
		if !c.quiet {
			fmt.Fprintf(os.Stderr, "sweep: wrote %d trajectories to %s\n", len(trajs), c.trajectory)
		}
	}
	if c.metrics != "" {
		if err := telemetry.WriteSnapshotFile(c.metrics, meter); err != nil {
			return err
		}
		if !c.quiet {
			s := meter.Snapshot()
			fmt.Fprintf(os.Stderr, "sweep: wrote %s (%d steps, %.3g steps/sec, kernels %s)\n",
				c.metrics, s.StepsExecuted, s.StepsPerSec(), strings.Join(s.KernelMix(), " "))
		}
	}

	writeTable(c, tableTitle(spec.Name, spec.Seed), acc, journal)
	if journal != nil {
		if err := journal.Close(); err != nil {
			return err
		}
	}
	if stopped {
		return fmt.Errorf("shard %d/%d: %w", shardIdx, shardOf, errStopped)
	}
	return nil
}

// runMerge combines finished shard runs: it interleaves the shard
// records files into -out in global grid order (byte-identical to the
// solo run) after verifying the manifests form one complete sweep, then
// recomputes the aggregate summary by streaming the merged records —
// the same canonical record order the solo run aggregates in, so the
// table matches byte for byte too.
func runMerge(c cliConfig, manifests []string) error {
	if len(manifests) == 0 {
		return fmt.Errorf("-merge needs the shard manifest files as arguments")
	}
	if c.out == "" {
		return fmt.Errorf("-merge needs -out for the combined records")
	}
	if c.shardSpec != "" || c.checkpoint != "" || c.stopAfter != 0 {
		return fmt.Errorf("-merge cannot be combined with -shard/-checkpoint/-stop-after")
	}
	// Merge into a temp file beside -out and rename it over -out on
	// success, so a refused merge leaves an existing log untouched.
	f, err := os.CreateTemp(filepath.Dir(c.out), filepath.Base(c.out)+".tmp-*")
	if err != nil {
		return err
	}
	info, err := shard.Merge(f, manifests)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), c.out)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	if !c.quiet {
		fmt.Fprintf(os.Stderr, "sweep: merged %d records from %d shards into %s (spec %.12s…)\n",
			info.Records, info.Shards, c.out, info.SpecHash)
	}
	acc := results.NewAccumulator()
	if err := readInto(c.out, acc); err != nil {
		return err
	}
	writeTable(c, tableTitle(info.SpecName, info.Seed), acc, nil)
	return nil
}

// readInto streams a JSONL file into the accumulator.
func readInto(path string, acc *results.Accumulator) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return results.ForEach(f, func(rec results.Record) error {
		acc.Add(rec)
		return nil
	})
}

// tableTitle renders the summary-table caption shared by solo, shard
// and merge modes.
func tableTitle(name string, seed uint64) string {
	if name == "" {
		name = "sweep"
	}
	return fmt.Sprintf("%s (seed %d)", name, seed)
}

// writeTable aggregates and prints the summary table.
func writeTable(c cliConfig, title string, acc *results.Accumulator, journal *telemetry.Journal) {
	endAgg := journal.Span("aggregate", nil)
	t := results.SummaryTable(title, acc.Groups())
	endAgg()
	if c.markdown {
		t.WriteMarkdown(os.Stdout)
	} else {
		t.WriteText(os.Stdout)
	}
}

// parseShard parses "i/m".
func parseShard(s string) (i, m int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/m, e.g. 0/4)", s)
	}
	if i, err = strconv.Atoi(a); err != nil {
		return 0, 0, fmt.Errorf("bad -shard index %q: %w", a, err)
	}
	if m, err = strconv.Atoi(b); err != nil {
		return 0, 0, fmt.Errorf("bad -shard count %q: %w", b, err)
	}
	if m < 1 {
		return 0, 0, fmt.Errorf("bad -shard %q: shard count must be at least 1", s)
	}
	if i < 0 || i >= m {
		return 0, 0, fmt.Errorf("bad -shard %q: index must be in 0..%d", s, m-1)
	}
	return i, m, nil
}

// recordsRelPath stores the records file relative to the manifest's
// directory when possible (the artifact pair travels together — merge
// resolves it against wherever the manifest lands), absolute otherwise.
func recordsRelPath(out, checkpoint string) string {
	if checkpoint == "" {
		return out
	}
	dir, err := filepath.Abs(filepath.Dir(checkpoint))
	if err != nil {
		return out
	}
	abs, err := filepath.Abs(out)
	if err != nil {
		return out
	}
	rel, err := filepath.Rel(dir, abs)
	if err != nil {
		return abs
	}
	return rel
}

// etaProgress returns a Progress callback printing a throttled
// "done/total (ETA …)" line. Callbacks arrive serialized on the pool's
// reporter goroutine, so the closure state needs no locking; throttling
// caps the stderr traffic at ~5 lines/sec however fast trials finish,
// with the final done == total call always printed.
func etaProgress(start time.Time) func(done, total int) {
	var last time.Time
	return func(done, total int) {
		now := time.Now()
		if done < total && now.Sub(last) < 200*time.Millisecond {
			return
		}
		last = now
		line := fmt.Sprintf("\rsweep: %d/%d trials", done, total)
		if done > 0 && done < total {
			rate := float64(now.Sub(start)) / float64(done)
			eta := time.Duration(rate * float64(total-done)).Round(time.Second)
			line += fmt.Sprintf(" (ETA %s)", eta)
		}
		// Trailing spaces wipe leftovers of a longer previous line.
		fmt.Fprint(os.Stderr, line, "        ")
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseList parses every element of a comma-separated list.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range splitList(s) {
		v, err := parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
