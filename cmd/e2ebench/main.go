// Command e2ebench is the repository's end-to-end benchmark. It measures
// what a user of the simulator waits for: the time from a sweep spec to
// its JSONL results on disk.
//
// For each workload it writes a sweep spec derived from -seed, builds
// cmd/sweep from the checkout once, and runs the sweep as a subprocess
// repeatedly — one process at a time, each repetition after the last has
// finished — until the -seconds budget is spent (at least three
// repetitions). End-to-end metrics are the medians over repetitions.
// With -trace 1 it then runs the workload once more in-process, through
// the same library calls cmd/sweep makes, timing each call into a layer
// (sweep, graph, scheduler, protocols, sim, runner, results, shard): the
// per-layer metrics. Tracing never runs during the timed repetitions.
//
// Every run checks the outputs: each repetition's exit codes, the shape
// of every record, byte-identical logs across repetitions (after zeroing
// the wall-time fields), the traced run against the subprocess, the
// sharded-and-resumed checkpoint workload against an unsharded run, and,
// at the default seed, digests pinned in testdata/digests.json.
//
// Usage, from the repository root:
//
//	bash cmd/e2ebench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	bash cmd/e2ebench/run.sh -report base.json           # on the baseline
//	bash cmd/e2ebench/run.sh -compare base.json          # on the change
//	bash cmd/e2ebench/run.sh -calibrate                  # rewrite the bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero when
// a check fails or -compare finds a regression.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/sweep"
)

// runSeconds is the default measurement budget per workload, and the
// one BENCHMARK.json records.
const runSeconds = 25

// config is one invocation's settings.
type config struct {
	root    string
	workdir string
	seed    uint64
	budget  time.Duration
	trace   bool
	smoke   bool
	workers int
	pinned  map[string]string
}

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload (default: all)")
		seed      = flag.Uint64("seed", defaultSeed, "workload seed; every sweep spec is derived from it")
		seconds   = flag.Int("seconds", runSeconds, "measurement budget per workload, in seconds (at least 3 repetitions run)")
		trace     = flag.Int("trace", 1, "1: add the traced in-process run and report per-layer metrics; 0: end-to-end metrics only")
		root      = flag.String("root", ".", "repository checkout to build cmd/sweep from")
		reportOut = flag.String("report", "", "write the full report as JSON to this path")
		compare   = flag.String("compare", "", "compare against a report written by -report; exit 1 on a regression")
		calib     = flag.Bool("calibrate", false, "run every workload at 10 seeds and write the bounds into BENCHMARK.json")
		smoke     = flag.Bool("smoke", false, "toy-sized workloads (tests)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		root:    *root,
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		smoke:   *smoke,
		workers: runtime.NumCPU(),
	}
	code, err := run(cfg, *name, *reportOut, *compare, *calib, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
	os.Exit(code)
}

// run executes one invocation and returns its exit code.
func run(cfg config, name, reportOut, compare string, calib bool, stdout io.Writer) (int, error) {
	for _, p := range []string{"go.mod", filepath.Join("cmd", "sweep", "main.go")} {
		if _, err := os.Stat(filepath.Join(cfg.root, p)); err != nil {
			return 2, fmt.Errorf("%s is not a popgraph checkout (run from the repository root or pass -root): %w", cfg.root, err)
		}
	}
	selected := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return 2, err
		}
		selected = []workload{w}
	}
	if calib && name != "" {
		return 2, errors.New("-calibrate runs every workload; drop -workload")
	}
	if cfg.workdir == "" {
		cfg.workdir = filepath.Join(cfg.root, ".bench_build", "e2ebench")
	}
	var err error
	if cfg.workdir, err = filepath.Abs(cfg.workdir); err != nil {
		return 2, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return 2, err
	}
	if cfg.pinned, err = pinnedDigests(cfg.root); err != nil && !errors.Is(err, os.ErrNotExist) {
		return 2, err
	}
	bin, err := buildSweep(cfg.root, cfg.workdir)
	if err != nil {
		return 2, err
	}
	if calib {
		return 0, calibrate(cfg, bin, stdout)
	}

	rep := report{Schema: reportSchema, Host: host(), Seed: cfg.seed,
		Seconds: int(cfg.budget / time.Second), Workers: cfg.workers}
	h := rep.Host
	fmt.Fprintf(stdout, "host: %s, nproc %d, GOMAXPROCS %d, %d workers, %s, kernel %s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, cfg.workers, h.Go, h.Kernel)
	for _, w := range selected {
		wr := benchWorkload(cfg, bin, w, cfg.seed)
		printWorkload(stdout, wr)
		rep.Workloads = append(rep.Workloads, wr)
	}
	code := 0
	if !rep.correct() {
		code = 1
	}
	if reportOut != "" {
		if err := writeJSON(reportOut, rep); err != nil {
			return 1, err
		}
	}
	if compare != "" {
		worse, err := compareWith(stdout, cfg.root, compare, rep)
		if err != nil {
			return 1, err
		}
		if worse > 0 {
			code = 1
		}
	}
	return code, json.NewEncoder(stdout).Encode(rep.result(cfg.trace))
}

// benchWorkload measures one workload at one seed and runs its checks.
// Check failures are recorded in the report, not returned.
func benchWorkload(cfg config, bin string, w workload, seed uint64) workloadReport {
	spec := specFor(w, seed, cfg.smoke)
	dir := filepath.Join(cfg.workdir, w.name)
	wr := workloadReport{Name: w.name, SpecSeed: spec.Seed, Timed: make(map[string]e2eSummary)}
	fail := func(err error) { wr.Problems = append(wr.Problems, err.Error()) }
	trials := spec.CellCount() * spec.Trials
	fmt.Fprintf(os.Stderr, "e2ebench: %s: %d trials per repetition, %v budget\n", w.name, trials, cfg.budget)

	e2e, err := runE2E(bin, filepath.Join(dir, "rep"), w, spec, cfg.workers, cfg.budget)
	wr.Reps, wr.Log = e2e.reps, e2e.log
	wr.Attempted = trials * max(e2e.reps, 1)
	wr.Failed = e2e.log.Failed * e2e.reps
	if err != nil {
		fail(err)
	}
	for name, xs := range e2e.samples {
		q1, med, q3 := quartiles(xs)
		wr.Timed[name] = e2eSummary{Median: med, P25: q1, P75: q3, N: len(xs), Samples: xs}
	}
	if err == nil && seed == defaultSeed && !cfg.smoke {
		if want, ok := cfg.pinned[w.name]; !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: no pinned digest in %s (got %s)\n", w.name, digestsPath, wr.Log.Digest)
		} else if want != wr.Log.Digest {
			fail(fmt.Errorf("%s: log digest %s, pinned %s", w.name, wr.Log.Digest, want))
		}
	}
	if err == nil && w.sharded {
		ref, err := referenceLog(spec, w, cfg.workers)
		wr.Attempted += trials
		switch {
		case err != nil:
			fail(fmt.Errorf("unsharded reference run: %w", err))
		case ref.Digest != wr.Log.Digest:
			fail(fmt.Errorf("%s: merged shard log differs from the unsharded run (digest %.12s… vs %.12s…)",
				w.name, wr.Log.Digest, ref.Digest))
		}
	}
	if !cfg.trace {
		return wr
	}
	data, err := json.Marshal(spec)
	if err != nil {
		fail(err)
		return wr
	}
	tr, err := runTraced(filepath.Join(dir, "traced"), w, data, cfg.workers)
	wr.Attempted += trials
	if err != nil {
		fail(err)
		return wr
	}
	wr.Layers, wr.TailPct, wr.TailSamples = tr.layers, tr.tailPct, tr.samples
	if s, ok := wr.Timed["wall_s"]; ok {
		wr.Layers["trace.overhead_frac"] = wr.Layers["trace.wall_s"]/s.Median - 1
	}
	if tr.log.Digest != wr.Log.Digest {
		fail(fmt.Errorf("%s: traced in-process log differs from the sweep subprocess (digest %.12s… vs %.12s…)",
			w.name, tr.log.Digest, wr.Log.Digest))
	}
	return wr
}

// referenceLog runs spec unsharded in-process and checks its records.
func referenceLog(spec sweep.Spec, w workload, workers int) (logSummary, error) {
	tasks, err := spec.Build()
	if err != nil {
		return logSummary{}, err
	}
	c := newLogCheck(spec, w.allStabilize, nil)
	var addErr error
	sweep.ExecuteStream(tasks, runner.Pool{Workers: workers}, func(rec results.Record) {
		if err := c.add(rec); err != nil && addErr == nil {
			addErr = err
		}
	})
	if addErr != nil {
		return logSummary{}, addErr
	}
	return c.finish()
}

// reportSchema identifies the report layout -compare reads.
const reportSchema = "popgraph-e2ebench/v1"

// report is everything one invocation measured.
type report struct {
	Schema    string           `json:"schema"`
	Host      hostFacts        `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workers   int              `json:"workers"`
	Workloads []workloadReport `json:"workloads"`
}

// workloadReport is one workload's measurement and checks.
type workloadReport struct {
	Name     string     `json:"name"`
	SpecSeed uint64     `json:"spec_seed"`
	Reps     int        `json:"reps"`
	Log      logSummary `json:"log"`
	// Attempted counts trials run (every repetition, the traced run and
	// any reference run); Failed the crashed ones among them.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Timed holds the end-to-end metrics of the timed repetitions.
	Timed  map[string]e2eSummary `json:"timed"`
	Layers map[string]float64    `json:"per_layer,omitempty"`
	// TailPct is the percentile runner.trial_us_tail reports: the
	// highest with at least ten trials beyond it.
	TailPct     float64 `json:"trial_tail_pct,omitempty"`
	TailSamples int     `json:"trial_samples,omitempty"`
}

// e2eSummary is one measurement over a run's repetitions.
type e2eSummary struct {
	Median  float64   `json:"median"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func (r report) correct() bool {
	for _, w := range r.Workloads {
		if len(w.Problems) > 0 {
			return false
		}
	}
	return len(r.Workloads) > 0
}

// metricValue and result are the shape of the final output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result condenses the report into the final output line: end-to-end
// medians, or with tracing the per-layer metrics. With more than one
// workload each name is prefixed by its workload's.
func (r report) result(traced bool) result {
	out := result{Correct: r.correct(), Metrics: make(map[string]metricValue)}
	for _, w := range r.Workloads {
		out.Attempted += w.Attempted
		out.Failed += w.Failed
		prefix := ""
		if len(r.Workloads) > 1 {
			prefix = w.Name + "."
		}
		put := func(name, unit string, v float64, ok bool) {
			if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
				out.Metrics[prefix+name] = metricValue{v, unit}
			}
		}
		if traced {
			for _, m := range layerMetrics {
				v, ok := w.Layers[m.name]
				put(m.name, m.unit, v, ok)
			}
			continue
		}
		for _, m := range e2eMetrics {
			s, ok := w.Timed[m.name]
			put(m.name, m.unit, s.Median, ok)
		}
	}
	return out
}

// printWorkload writes one workload's metrics, by name with unit.
func printWorkload(w io.Writer, r workloadReport) {
	fmt.Fprintf(w, "== %s: spec seed %d, %d repetitions, %d records, digest %.16s\n",
		r.Name, r.SpecSeed, r.Reps, r.Log.Records, r.Log.Digest)
	for _, m := range e2eMetrics {
		if s, ok := r.Timed[m.name]; ok {
			fmt.Fprintf(w, "  %-26s %14.6g %-9s median of %d; p25 %.6g, p75 %.6g\n",
				m.name, s.Median, m.unit, s.N, s.P25, s.P75)
		}
	}
	for _, m := range layerMetrics {
		if v, ok := r.Layers[m.name]; ok {
			note := ""
			if m.name == "runner.trial_us_tail" {
				note = fmt.Sprintf("p%g of %d trials", r.TailPct, r.TailSamples)
			}
			fmt.Fprintf(w, "  %-26s %14.6g %-9s %s\n", m.name, v, m.unit, note)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// hostFacts records where a report was measured.
type hostFacts struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func host() hostFacts {
	h := hostFacts{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareWith prints one row per workload and end-to-end metric of cur
// against the report at basePath, judged against the bounds in
// BENCHMARK.json, and returns the number of regressions.
func compareWith(w io.Writer, root, basePath string, cur report) (int, error) {
	data, err := os.ReadFile(basePath)
	if err != nil {
		return 0, err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", basePath, err)
	}
	if base.Schema != reportSchema {
		return 0, fmt.Errorf("%s: report schema %q, want %q", basePath, base.Schema, reportSchema)
	}
	bounds, err := readBounds(root)
	if err != nil {
		return 0, err
	}
	if base.Host != cur.Host {
		fmt.Fprintf(w, "warning: hosts differ (base %+v, current %+v)\n", base.Host, cur.Host)
	}
	fmt.Fprintf(w, "%-11s %-13s %12s %8s %12s %8s %9s %6s  %s\n",
		"workload", "metric", "base", "iqr", "current", "iqr", "worse by", "bound", "verdict")
	worse := 0
	for _, cw := range cur.Workloads {
		var bw *workloadReport
		for i := range base.Workloads {
			if base.Workloads[i].Name == cw.Name {
				bw = &base.Workloads[i]
			}
		}
		if bw == nil {
			fmt.Fprintf(w, "%-11s (not in %s)\n", cw.Name, basePath)
			continue
		}
		for _, m := range e2eMetrics {
			b, okb := bw.Timed[m.name]
			c, okc := cw.Timed[m.name]
			if !okb || !okc {
				continue
			}
			bound := bounds[m.name]
			v, worsening := verdict(b.Samples, c.Samples, m.better, bound, m.floor)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-11s %-13s %12.6g %8.3g %12.6g %8.3g %8.1f%% %5.0f%%  %s\n",
				cw.Name, m.name, b.Median, b.P75-b.P25, c.Median, c.P75-c.P25,
				100*worsening, 100*bound, v)
		}
	}
	return worse, nil
}

// calibrate runs every workload at ten seeds, prints each end-to-end
// metric's run-to-run spread and the bound it implies, and writes each
// metric's largest bound over the workloads into BENCHMARK.json.
func calibrate(cfg config, bin string, w io.Writer) error {
	const runs = 10
	cfg.trace = false
	bounds := make(map[string]float64)
	fmt.Fprintf(w, "%-11s %-13s %12s %8s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "run medians")
	for _, wl := range workloads {
		values := make(map[string][]float64)
		for i := 0; i < runs; i++ {
			r := benchWorkload(cfg, bin, wl, cfg.seed+uint64(i))
			if len(r.Problems) > 0 {
				return fmt.Errorf("calibration run %d of %s failed its checks: %s", i, wl.name, strings.Join(r.Problems, "; "))
			}
			for _, m := range e2eMetrics {
				values[m.name] = append(values[m.name], r.Timed[m.name].Median)
			}
		}
		for _, m := range e2eMetrics {
			xs := values[m.name]
			_, med, _ := quartiles(xs)
			spread := relSpread(xs)
			b := calibratedBound(spread)
			if m.name == "setup_s" {
				// Set-up time is the metric a change can quietly move work
				// into; it gets the widest bound so that its own jitter, tens
				// of percent on millisecond set-ups, never reads as that.
				b = maxBound
			}
			fmt.Fprintf(w, "%-11s %-13s %12.6g %7.1f%% %6.0f%%  %.4g\n", wl.name, m.name, med, 100*spread, 100*b, xs)
			bounds[m.name] = math.Max(bounds[m.name], b)
		}
	}
	return writeJSON(filepath.Join(cfg.root, benchmarkFileName), benchmarkDefinition(bounds))
}
