// Package bench measures scheduler-engine throughput on a fixed
// graph × scheduler × protocol grid and serializes the results as the
// repo-root BENCH_sim.json, so the simulator's performance trajectory
// is tracked PR-over-PR.
//
// Each grid cell is timed twice through the batch runner
// (internal/runner, one worker; all of a cell's trials run in one
// Pool.Run, the way a sweep runs them, and each trial's time is its
// Outcome.ElapsedNs): once on the specialized kernel the cell's
// execution plan compiles to (sim.Compile — dense/clique uniform,
// weighted alias-table, node-clock, churn-uniform, with drop rates
// folded into the fast loops), and once on the generic Source-driven
// reference kernel, which Options.Reference forces. Both consume the identical random stream (see internal/sim),
// so the ratio is a pure engine speedup, now measured per scheduler and
// per drop rate — the CI gate guards every specialized loop, not just
// the uniform ones. Cells whose plan compiles to the generic kernel
// anyway (churn on the implicit clique) are timed once and recorded
// under both labels with speedup exactly 1.
//
// Compare diffs a fresh report against a committed baseline and reports
// cells whose specialized ns/step regressed beyond a tolerance; CI runs
// it as a smoke gate. ns/step is machine-dependent, so gate thresholds
// must be generous (CI uses 30%) and baselines should be regenerated on
// the machine whose trajectory is being tracked.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"popgraph"
	"popgraph/internal/runner"
	"popgraph/internal/sim"
	"popgraph/internal/table"
	"popgraph/internal/telemetry"
)

// Schema identifies the BENCH_sim.json layout; bump on breaking changes.
// v2 added the scheduler dimension; v3 added the drop dimension and the
// per-cell engine name, and made every non-generic cell a real
// fast-vs-reference comparison; v4 added the protocol-compilation axis:
// the per-cell protocol engine name ("table" for fused transition-table
// kernels, "step" for interface dispatch), the interface-dispatch
// timing and the table-vs-interface speedup; v5 added a lockstep batch
// axis; v6 added the snapshot axis: the per-cell graph_source
// ("generator" or "snapshot" for file: specs) and the
// report-level startup section timing snapshot build vs load on large
// graphs (RunStartup); v7 dropped the batch axis with the lockstep
// engine and times every engine's trials in one pool, taking per-trial
// times from Outcome.ElapsedNs instead of a pool per trial. The
// startup section's mmap_load_ns went away within v7: ReadJSON ignores
// it in older reports, and Compare reads only Results.
const Schema = "popgraph-bench/v7"

// Config is one grid cell: a graph, scheduler and protocol spec with
// the trial shape. Steps caps every trial, so cells are timed over
// comparable work whether or not the protocol stabilizes first.
type Config struct {
	GraphSpec string `json:"graph_spec"`
	// Scheduler is a ParseScheduler spec; empty means uniform.
	Scheduler string `json:"scheduler,omitempty"`
	Protocol  string `json:"protocol"`
	// Drop is the injected interaction drop rate in [0, 1); drop
	// decisions execute inside the specialized kernels, so drop>0 cells
	// measure a distinct fast path.
	Drop   float64 `json:"drop,omitempty"`
	Steps  int64   `json:"steps"`
	Trials int     `json:"trials"`
}

// EngineStats is the timing of one engine on one cell.
type EngineStats struct {
	// Steps is the total number of interactions timed across all trials.
	Steps int64 `json:"steps"`
	// NsPerStep and StepsPerSec are the headline throughput numbers,
	// aggregated over all trials.
	NsPerStep   float64 `json:"ns_per_step"`
	StepsPerSec float64 `json:"steps_per_sec"`
	// BestNsPerStep is the fastest single trial. Minimum-of-trials
	// filters out scheduling interference and cache-warmup noise, so the
	// regression gate (Compare) uses it rather than the mean.
	BestNsPerStep float64 `json:"best_ns_per_step"`
}

// Measurement is the result of one grid cell.
type Measurement struct {
	Graph     string `json:"graph"`
	GraphSpec string `json:"graph_spec"`
	// Scheduler is the scheduler's display name ("uniform" when the
	// config left it empty).
	Scheduler string `json:"scheduler"`
	Protocol  string `json:"protocol"`
	// Drop is the cell's injected drop rate (omitted when 0).
	Drop float64 `json:"drop,omitempty"`
	// GraphSource records where the cell's graph came from: "generator"
	// for in-process construction, "snapshot" for file: specs. The
	// two are byte-identical to run (the determinism contract), so the
	// field only labels provenance; it is deliberately not part of key(),
	// keeping a snapshot-sourced grid comparable against a generator
	// baseline.
	GraphSource string `json:"graph_source"`
	// Engine is the scheduler kernel the cell's execution plan compiled
	// to: "dense-uniform", "clique-uniform", "weighted", "node-clock",
	// "churn-uniform" or "generic" (sim.ExecPlan.Engine).
	Engine string `json:"engine"`
	// ProtocolEngine is the protocol dispatch of the cell's fast path:
	// "table" when the protocol fuses into the kernel's transition-table
	// variant, "step" for Protocol.Step interface dispatch
	// (sim.ExecPlan.ProtocolEngine).
	ProtocolEngine string `json:"protocol_engine"`
	N              int    `json:"n"`
	M              int    `json:"m"`
	Trials         int    `json:"trials"`
	// Specialized times the full fast path (the fused table kernel on
	// "table" cells); Interface times the same scheduler kernel with
	// table fusion disabled (Options.NoTable) — on "step" cells it is
	// the same loop, timed once and copied; Generic times the
	// Source-driven reference loop that Options.Reference forces (also
	// copied when Engine is "generic").
	Specialized EngineStats `json:"specialized"`
	Interface   EngineStats `json:"interface"`
	Generic     EngineStats `json:"generic"`
	// Speedup is generic ns/step divided by specialized ns/step;
	// exactly 1 on generic-engine cells. TableSpeedup is interface
	// ns/step divided by specialized ns/step — the pure
	// protocol-compilation win; exactly 1 on "step" cells.
	Speedup      float64 `json:"speedup"`
	TableSpeedup float64 `json:"table_speedup"`
}

// key identifies a cell for baseline comparison.
func (m Measurement) key() string {
	return fmt.Sprintf("%s|%s|%s|%g", m.GraphSpec, m.Scheduler, m.Protocol, m.Drop)
}

// Report is the machine-readable benchmark output.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// The host: CPUModel is /proc/cpuinfo's first "model name" (empty
	// where there is none), NProc the logical CPU count and GOMAXPROCS
	// the scheduler's setting during the run. Compare ignores them.
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	// MaxSpeedup is the best specialized-over-generic ratio in the grid,
	// the single number the perf trajectory tracks; MaxTableSpeedup is
	// the best table-over-interface ratio, tracking the protocol-
	// compilation axis the same way.
	MaxSpeedup      float64       `json:"max_speedup"`
	MaxTableSpeedup float64       `json:"max_table_speedup"`
	Results         []Measurement `json:"results"`
	// Startup is the snapshot preprocessing axis: build-once vs load
	// timings on large graphs (RunStartup). Compare ignores it — the
	// cells are matched on Results only — so the startup numbers inform
	// without gating.
	Startup []StartupMeasurement `json:"startup,omitempty"`
}

// DefaultGrid returns the standard grid: the six-state baseline on every
// concrete representation (implicit clique, CSR torus/lollipop/cycle)
// plus one identifier and one fast cell; a scheduler dimension — the
// six-state torus cell repeated under the weighted, node-clock and churn
// schedulers, each now a real fast-vs-reference comparison; a drop
// dimension — the uniform and weighted torus cells repeated at drop 0.1,
// covering the in-kernel drop fast path; and a protocol dimension — the
// four-state majority cell, the second Tabular protocol, so the
// table-vs-interface axis is gated on more than one transition table;
// and two replicate-heavy cells of short trials. quick shrinks the work
// for smoke tests.
func DefaultGrid(quick bool) []Config {
	steps, trials := int64(1<<21), 3
	if quick {
		// Still smoke-fast (seconds), but big enough that ns/step
		// converges to the full grid's — much shorter timed regions are
		// dominated by warmup and timer granularity — and with enough
		// trials that the best-of-trials minimum, which the CI -compare
		// gate against the committed full-grid baseline uses, reliably
		// lands on a quiet scheduler slice even on busy machines.
		steps, trials = 1<<18, 6
	}
	// Replicate-heavy cells: hundreds of short trials on small graphs,
	// where per-trial protocol construction and compile rival the kernel
	// time, so ns/step includes them. Distinct graph sizes keep these
	// cells' keys from colliding with the long-trial cells of the same
	// family. The quick grid keeps the full grid's
	// trial length: on short trials ns/step includes the per-trial
	// overhead, so shrinking the trials would shift the statistic and
	// break the -compare gate against the committed full-grid baseline
	// — and at ~1ms of kernel time per engine the cells need no
	// shrinking to stay smoke-fast.
	const repSteps, repTrials = int64(1 << 10), 256
	return []Config{
		{GraphSpec: "clique:1024", Protocol: "six-state", Steps: steps, Trials: trials},
		{GraphSpec: "torus:32x32", Protocol: "six-state", Steps: steps, Trials: trials},
		{GraphSpec: "lollipop:64:64", Protocol: "six-state", Steps: steps, Trials: trials},
		{GraphSpec: "cycle:1024", Protocol: "six-state", Steps: steps, Trials: trials},
		{GraphSpec: "torus:32x32", Protocol: "identifier", Steps: steps, Trials: trials},
		{GraphSpec: "clique:1024", Protocol: "fast", Steps: steps, Trials: trials},
		{GraphSpec: "torus:32x32", Scheduler: "weighted:exp", Protocol: "six-state", Steps: steps, Trials: trials},
		{GraphSpec: "torus:32x32", Scheduler: "node-clock", Protocol: "six-state", Steps: steps, Trials: trials},
		{GraphSpec: "torus:32x32", Scheduler: "churn:64:16", Protocol: "six-state", Steps: steps, Trials: trials},
		{GraphSpec: "torus:32x32", Protocol: "six-state", Drop: 0.1, Steps: steps, Trials: trials},
		{GraphSpec: "torus:32x32", Scheduler: "weighted:exp", Protocol: "six-state", Drop: 0.1, Steps: steps, Trials: trials},
		{GraphSpec: "torus:32x32", Protocol: "majority:0.75", Steps: steps, Trials: trials},
		{GraphSpec: "torus:16x16", Protocol: "six-state", Steps: repSteps, Trials: repTrials},
		{GraphSpec: "hypercube:8", Protocol: "six-state", Steps: repSteps, Trials: repTrials},
	}
}

// RunMetered times every config and assembles the report. logf, if
// non-nil, receives one progress line per cell. A non-nil meter is
// attached to every timed trial (warmups included). Metering accounts
// at chunk granularity on the kernels' control path, so the throughput
// numbers stay within the -compare gate's noise band of an unmetered
// run.
func RunMetered(cfgs []Config, seed uint64, logf func(format string, args ...interface{}),
	meter *telemetry.Counters) (Report, error) {
	rep := Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
	for i, cfg := range cfgs {
		m, err := measure(cfg, seed, meter)
		if err != nil {
			return Report{}, fmt.Errorf("bench: config %d (%s × %s): %w",
				i, cfg.GraphSpec, cfg.Protocol, err)
		}
		if m.Speedup > rep.MaxSpeedup {
			rep.MaxSpeedup = m.Speedup
		}
		if m.TableSpeedup > rep.MaxTableSpeedup {
			rep.MaxTableSpeedup = m.TableSpeedup
		}
		rep.Results = append(rep.Results, m)
		if logf != nil {
			logf("bench: %-16s × %-12s × %-18s × drop %.2g  [%s/%s]  specialized %6.2f ns/step  interface %6.2f  generic %6.2f  speedup %.2fx  table %.2fx",
				m.Graph, m.Scheduler, m.Protocol, m.Drop, m.Engine, m.ProtocolEngine,
				m.Specialized.NsPerStep, m.Interface.NsPerStep, m.Generic.NsPerStep,
				m.Speedup, m.TableSpeedup)
		}
	}
	return rep, nil
}

// measure times one cell on both engines.
func measure(cfg Config, seed uint64, meter *telemetry.Counters) (Measurement, error) {
	if cfg.Steps < 1 || cfg.Trials < 1 {
		return Measurement{}, fmt.Errorf("steps and trials must be >= 1 (got %d, %d)",
			cfg.Steps, cfg.Trials)
	}
	r := popgraph.NewRand(seed)
	g, err := popgraph.ParseGraph(cfg.GraphSpec, r)
	if err != nil {
		return Measurement{}, err
	}
	schedSpec := cfg.Scheduler
	if schedSpec == "" {
		schedSpec = "uniform"
	}
	sched, err := popgraph.ParseScheduler(schedSpec, g, r)
	if err != nil {
		return Measurement{}, err
	}
	factory, err := popgraph.ProtocolFactory(cfg.Protocol, g, r)
	if err != nil {
		return Measurement{}, err
	}
	opts := sim.Options{MaxSteps: cfg.Steps, Scheduler: sched, DropRate: cfg.Drop}
	plan, err := sim.Compile(g, opts)
	if err != nil {
		return Measurement{}, err
	}
	source := "generator"
	if strings.HasPrefix(cfg.GraphSpec, "file:") {
		source = "snapshot"
	}
	m := Measurement{
		Graph:          g.Name(),
		GraphSpec:      cfg.GraphSpec,
		GraphSource:    source,
		Scheduler:      sched.Name(),
		Protocol:       factory().Name(),
		Drop:           cfg.Drop,
		Engine:         plan.Engine(),
		ProtocolEngine: plan.ProtocolEngine(factory()),
		N:              g.N(),
		M:              g.M(),
		Trials:         cfg.Trials,
	}
	// Time the full fast path (fused table kernel on "table" cells),
	// then the interface-dispatch variant on the same scheduler kernel
	// (Options.NoTable), then the Source-driven reference loop that
	// Options.Reference forces. Paths that coincide with one already
	// timed — "step" cells have no separate interface variant, generic-
	// engine cells (clique churn) no separate reference loop — are timed
	// once and the stats copied, making the corresponding speedup
	// exactly 1.
	spec, err := timeEngine(g, factory, seed, cfg, opts, meter)
	if err != nil {
		return Measurement{}, err
	}
	iface := spec
	if m.ProtocolEngine == "table" {
		ifaceOpts := opts
		ifaceOpts.NoTable = true
		iface, err = timeEngine(g, factory, seed, cfg, ifaceOpts, meter)
		if err != nil {
			return Measurement{}, err
		}
	}
	gen := iface
	if m.Engine != "generic" {
		refOpts := opts
		refOpts.Reference = true
		gen, err = timeEngine(g, factory, seed, cfg, refOpts, meter)
		if err != nil {
			return Measurement{}, err
		}
	}
	m.Specialized, m.Interface, m.Generic = spec, iface, gen
	if spec.NsPerStep > 0 {
		m.Speedup = gen.NsPerStep / spec.NsPerStep
		m.TableSpeedup = iface.NsPerStep / spec.NsPerStep
	}
	return m, nil
}

// timeEngine runs the cell's trials through one single-worker pool, as
// a sweep runs them, and returns total-steps/time throughput. Each
// trial's time is its Outcome.ElapsedNs, so the fastest trial survives
// alongside the aggregate and no pool start-up lands inside a timing. A
// warmup trial runs first, untimed, to populate caches and let the
// protocol's graph-dependent setup settle.
func timeEngine(g popgraph.Graph, factory func() popgraph.Protocol, seed uint64,
	cfg Config, opts sim.Options, meter *telemetry.Counters) (EngineStats, error) {
	warm := opts
	warm.MaxSteps = cfg.Steps / 8
	if warm.MaxSteps < 1 {
		warm.MaxSteps = 1
	}
	pool := runner.Pool{Workers: 1, Meter: meter}
	pool.Run(runner.TrialJobs(g, factory, seed, 1, warm))

	var (
		steps   int64
		totalNs float64
		bestNs  float64
	)
	for _, o := range pool.Run(runner.TrialJobs(g, factory, seed, cfg.Trials, opts)) {
		if o.Failed() {
			return EngineStats{}, fmt.Errorf("trial crashed: %s", o.Err)
		}
		if o.Result.Steps > 0 {
			trialNs := float64(o.ElapsedNs) / float64(o.Result.Steps)
			if bestNs == 0 || trialNs < bestNs {
				bestNs = trialNs
			}
		}
		steps += o.Result.Steps
		totalNs += float64(o.ElapsedNs)
	}
	if steps == 0 {
		return EngineStats{}, fmt.Errorf("no interactions executed")
	}
	return EngineStats{
		Steps:         steps,
		NsPerStep:     totalNs / float64(steps),
		StepsPerSec:   float64(steps) / (totalNs / 1e9),
		BestNsPerStep: bestNs,
	}, nil
}

// gateNs is the statistic the regression gate and the delta table run
// on: best-trial specialized ns/step, falling back to the aggregate for
// hand-edited baselines that lack the best-of-trials field.
func gateNs(e EngineStats) float64 {
	if e.BestNsPerStep > 0 {
		return e.BestNsPerStep
	}
	return e.NsPerStep
}

// CellDelta is one row of the per-cell comparison against a baseline:
// the cell identity, both gate statistics and the relative change.
type CellDelta struct {
	GraphSpec, Scheduler, Protocol string
	Drop                           float64
	Engine, ProtocolEngine         string
	// BaseNs and CurNs are the gate statistic (best-trial specialized
	// ns/step) on each side; zero when the cell is missing from that
	// side.
	BaseNs, CurNs float64
	// Delta is CurNs/BaseNs − 1 (negative = faster); meaningful only
	// for matched cells.
	Delta float64
	// Status classifies the row: "ok", "regressed" (Delta beyond the
	// tolerance), "new" (no baseline cell) or "removed" (no current
	// cell).
	Status string
}

// DeltaTable diffs cur against a baseline cell by cell and returns one
// row per cell on either side — matched cells with their relative
// change and regression verdict at tolerance tol, then cells present
// only in the current grid ("new"), with baseline-only cells ("removed")
// at the end. It is the one place the gate's verdict is made: Compare
// reports its regressed rows, and DeltaReport renders all of them, the
// full picture a human (or a CI step summary) reads.
func DeltaTable(cur, base Report, tol float64) []CellDelta {
	baseline := make(map[string]Measurement, len(base.Results))
	for _, m := range base.Results {
		baseline[m.key()] = m
	}
	cell := func(m Measurement, status string) CellDelta {
		return CellDelta{GraphSpec: m.GraphSpec, Scheduler: m.Scheduler, Protocol: m.Protocol,
			Drop: m.Drop, Engine: m.Engine, ProtocolEngine: m.ProtocolEngine, Status: status}
	}
	var rows []CellDelta
	for _, m := range cur.Results {
		row := cell(m, "new")
		row.CurNs = gateNs(m.Specialized)
		if b, ok := baseline[m.key()]; ok {
			delete(baseline, m.key())
			if base := gateNs(b.Specialized); base > 0 {
				row.BaseNs = base
				row.Delta = row.CurNs/row.BaseNs - 1
				row.Status = "ok"
				if row.Delta > tol {
					row.Status = "regressed"
				}
			}
		}
		rows = append(rows, row)
	}
	// Deterministic order for the leftover baseline-only cells: baseline
	// report order.
	for _, b := range base.Results {
		if _, ok := baseline[b.key()]; ok {
			row := cell(b, "removed")
			row.BaseNs = gateNs(b.Specialized)
			rows = append(rows, row)
		}
	}
	return rows
}

// DeltaReport renders DeltaTable rows as one table, which cmd/bench
// writes as text and, for a CI step summary, as markdown.
func DeltaReport(title string, rows []CellDelta) *table.Table {
	t := table.New(title, "graph", "sched", "protocol", "drop", "engine",
		"base ns/step", "cur ns/step", "delta", "status")
	ns := func(v float64) string {
		if v <= 0 {
			return "—"
		}
		return fmt.Sprintf("%.2f", v)
	}
	for _, r := range rows {
		delta := "—"
		if r.matched() {
			delta = fmt.Sprintf("%+.1f%%", 100*r.Delta)
		}
		t.AddRow(r.GraphSpec, r.Scheduler, r.Protocol, r.Drop, r.Engine+"/"+r.ProtocolEngine,
			ns(r.BaseNs), ns(r.CurNs), delta, r.Status)
	}
	return t
}

// matched reports whether the row compares a current cell with a
// baseline cell.
func (r CellDelta) matched() bool { return r.Status == "ok" || r.Status == "regressed" }

// TelemetryReport renders a flight-recorder snapshot's top-line counters
// — steps/sec, RNG refills per million steps, the kernel dispatch mix —
// as a metric/value table.
func TelemetryReport(s telemetry.Snapshot) *table.Table {
	t := table.New("engine telemetry", "metric", "value")
	t.AddRow("steps executed", s.StepsExecuted)
	t.AddRow("steps/sec", fmt.Sprintf("%.3g", s.StepsPerSec()))
	t.AddRow("RNG refills / Mstep", fmt.Sprintf("%.1f", s.RefillsPerMStep()))
	t.AddRow("chunks run", s.ChunksRun)
	t.AddRow("drops applied", s.DropsApplied)
	t.AddRow("trials (stabilized/run)", fmt.Sprintf("%d/%d", s.TrialsStabilized, s.TrialsRun))
	t.AddRow("kernel mix", strings.Join(s.KernelMix(), " "))
	return t
}

// Compare checks cur against a committed baseline and returns one
// message per regressed DeltaTable row: a cell regresses when its
// specialized best-trial ns/step exceeds the baseline cell's by more
// than tol (a fraction; 0.30 means 30% slower). Best-of-trials is the
// comparison statistic because minima are far more stable than means
// under machine noise; reports from producers predating the field fall
// back to the aggregate. Cells present on only one side are skipped —
// new grid cells have no baseline and removed ones no current
// measurement — but if *no* cell matches at all (a grid or spec rename
// without a regenerated baseline), that is itself reported, so the gate
// can never go vacuously green. An empty slice means no regression.
func Compare(cur, base Report, tol float64) []string {
	var msgs []string
	matched := 0
	for _, r := range DeltaTable(cur, base, tol) {
		if r.matched() {
			matched++
		}
		if r.Status == "regressed" {
			msgs = append(msgs, fmt.Sprintf(
				"%s × %s × %s × drop %g: specialized %.2f ns/step vs baseline %.2f (+%.0f%%, tolerance %.0f%%)",
				r.GraphSpec, r.Scheduler, r.Protocol, r.Drop, r.CurNs, r.BaseNs, 100*r.Delta, 100*tol))
		}
	}
	if matched == 0 && len(cur.Results) > 0 {
		msgs = append(msgs, fmt.Sprintf(
			"no cell of the current grid matches the baseline (%d current, %d baseline cells) — regenerate the committed report",
			len(cur.Results), len(base.Results)))
	}
	return msgs
}

// WriteJSON serializes the report with stable field order and trailing
// newline, suitable for committing at the repo root.
func (rep Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadJSON parses a report previously produced by WriteJSON.
func ReadJSON(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("bench: parsing report: %w", err)
	}
	if rep.Schema != Schema {
		if strings.HasPrefix(rep.Schema, "popgraph-bench/") {
			return Report{}, fmt.Errorf("bench: report schema %q is outdated (want %q); regenerate it with go run ./cmd/bench",
				rep.Schema, Schema)
		}
		return Report{}, fmt.Errorf("bench: unknown schema %q (want %q)", rep.Schema, Schema)
	}
	return rep, nil
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or "" where
// the file or the field is missing (non-Linux hosts, some ARM kernels).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
