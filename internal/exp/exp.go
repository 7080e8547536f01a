// Package exp is the experiment harness that regenerates the paper's
// evaluation: every row of Table 1 and every quantitative lemma gets a
// paper-vs-measured experiment (E1–E20, indexed in DESIGN.md). Each
// experiment prints one or more tables; cmd/experiments is the CLI driver
// and bench_test.go wraps each experiment in a testing.B benchmark.
// Repeated trials run through internal/runner, so experiments are
// parallel across CPUs yet deterministic for a fixed Config.Seed. Two
// experiments drive a protocol without the runner because they are not
// repeated simulation runs: E10 steps a protocol by hand until its
// identifiers settle, and E13 makes one observed run to sample state
// densities.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"popgraph/internal/graph"
	"popgraph/internal/runner"
	"popgraph/internal/sim"
	"popgraph/internal/stats"
	"popgraph/internal/table"
)

// Config controls an experiment run.
type Config struct {
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// Quick shrinks ladders and trial counts (used by `go test` smoke
	// tests and -quick CLI runs; full runs are the default).
	Quick bool
	// Out receives the rendered tables (defaults to io.Discard if nil).
	Out io.Writer
	// Markdown renders tables as Markdown instead of aligned text.
	Markdown bool
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) render(t *table.Table) {
	w := c.out()
	if c.Markdown {
		t.WriteMarkdown(w)
	} else {
		t.WriteText(w)
	}
	fmt.Fprintln(w)
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	// ID is the short identifier from DESIGN.md, e.g. "E3".
	ID string
	// Name is a one-line title.
	Name string
	// Claim cites the paper statement being reproduced.
	Claim string
	// Run executes the experiment, writing tables to cfg.Out.
	Run func(cfg Config) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID: alphabetic prefix
// first, then numeric suffix ("E2" before "E10", and any future "EX1"
// after every "En").
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		return idLess(out[i].ID, out[j].ID)
	})
	return out
}

// idLess orders experiment IDs by (alphabetic prefix, numeric suffix).
// IDs whose suffix is not a plain number fall back to lexicographic
// order after the prefix comparison.
func idLess(a, b string) bool {
	pa, na, oka := splitID(a)
	pb, nb, okb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	if oka && okb && na != nb {
		return na < nb
	}
	if oka != okb {
		return okb // "E" sorts before "E1"… of the same prefix
	}
	return a < b
}

// splitID splits an ID into its leading non-digit prefix and trailing
// number; ok is false when the suffix is empty or not a plain number.
func splitID(id string) (prefix string, num int, ok bool) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	if i == len(id) {
		return id, 0, false
	}
	n, err := strconv.Atoi(id[i:])
	if err != nil {
		return id[:i], 0, false
	}
	return id[:i], n, true
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Measurement summarizes repeated stabilization-time trials.
type Measurement struct {
	// Steps summarizes the stabilization times of the trials that
	// stabilized.
	Steps stats.Summary
	// Stabilized of Trials runs reached a stable configuration before the
	// step cap.
	Stabilized, Trials int
	// BackupMean is the mean number of nodes that entered a backup phase
	// (protocols without a backup report 0).
	BackupMean float64
}

// MeasureSteps runs `trials` independent executions of factory() on g
// with distinct deterministic seeds, in parallel through the batch
// runner, and aggregates stabilization times. maxSteps <= 0 uses the
// engine default.
func MeasureSteps(g graph.Graph, factory func() sim.Protocol, seed uint64,
	trials int, maxSteps int64) Measurement {
	return MeasureOpts(g, factory, seed, trials, sim.Options{MaxSteps: maxSteps})
}

// MeasureOpts is MeasureSteps with full simulation options (drop rates,
// step caps); the per-trial seed derivation is runner.SeedFor.
func MeasureOpts(g graph.Graph, factory func() sim.Protocol, seed uint64,
	trials int, opts sim.Options) Measurement {
	jobs := runner.TrialJobs(g, factory, seed, trials, opts)
	return SummarizeOutcomes(runner.Run(jobs))
}

// SummarizeOutcomes aggregates a batch of runner outcomes into a
// Measurement.
func SummarizeOutcomes(outcomes []runner.Outcome) Measurement {
	m := Measurement{Trials: len(outcomes)}
	steps := make([]float64, 0, len(outcomes))
	var backupSum float64
	for _, o := range outcomes {
		if o.Result.Stabilized {
			m.Stabilized++
			steps = append(steps, float64(o.Result.Steps))
		}
		backupSum += float64(o.Backup)
	}
	if m.Trials > 0 {
		m.BackupMean = backupSum / float64(m.Trials)
	}
	if len(steps) > 0 {
		m.Steps = stats.Summarize(steps)
	}
	return m
}

// ladder returns a geometric size ladder, halved under Quick.
func ladder(cfg Config, full []int) []int {
	if !cfg.Quick {
		return full
	}
	if len(full) <= 2 {
		return full
	}
	return full[:len(full)-1]
}

// trials picks a trial count, reduced under Quick.
func trials(cfg Config, full int) int {
	if cfg.Quick {
		t := full / 2
		if t < 3 {
			t = 3
		}
		return t
	}
	return full
}

// fitRow appends a log-log scaling fit line to the writer.
func fitRow(cfg Config, label string, ns, ys []float64) {
	if len(ns) < 2 {
		return
	}
	slope, r2 := stats.LogLogSlope(ns, ys)
	fmt.Fprintf(cfg.out(), "%s: log-log slope %.3f (R² %.3f)\n", label, slope, r2)
}
