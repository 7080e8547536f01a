// Package results defines the structured per-trial record produced by
// batch runs (internal/runner, cmd/sweep), its JSON Lines encoding, and
// aggregation of raw records into per-configuration summary statistics
// rendered through internal/table.
//
// The encoding is deliberately boring: one JSON object per line, fixed
// field order (Go struct order), so that the same seed and spec produce
// identical logs regardless of worker count. The only host-dependent
// fields are the two trailing wall-time ones (elapsed_ns, queue_wait_ns);
// everything before them is byte-deterministic, and determinism tests
// compare logs with the timing fields normalized out.
package results

import (
	"bufio"
	"fmt"
	"io"

	"popgraph/internal/jsonl"
	"popgraph/internal/stats"
	"popgraph/internal/table"
)

// Record is the outcome of one simulation trial.
type Record struct {
	// Graph is the graph's display name (e.g. "torus-8x8"); N and M are
	// its node and edge counts.
	Graph string `json:"graph"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	// Scheduler is the interaction scheduler's display name ("uniform",
	// "weighted:exp", "churn:64:16", ...); empty in records from
	// producers predating the scheduler axis, which means uniform.
	Scheduler string `json:"scheduler,omitempty"`
	// Protocol is the protocol's display name.
	Protocol string `json:"protocol"`
	// Trial is the 0-based trial index within its configuration; Seed is
	// the exact generator seed the trial ran with.
	Trial int    `json:"trial"`
	Seed  uint64 `json:"seed"`
	// DropRate is the injected interaction-failure probability.
	DropRate float64 `json:"drop_rate,omitempty"`
	// Steps is the stabilization time in interactions (or the cap when
	// Stabilized is false); Leader is the elected node or -1.
	Steps      int64 `json:"steps"`
	Stabilized bool  `json:"stabilized"`
	Leader     int   `json:"leader"`
	// Backup is the number of nodes that entered a backup phase.
	Backup int `json:"backup,omitempty"`
	// Error is the panic message when the trial crashed instead of
	// completing (runner.Outcome.Err); empty for healthy trials.
	Error string `json:"error,omitempty"`
	// ElapsedNs is the trial's wall-clock execution time and QueueWaitNs
	// its wait for a worker slot, in nanoseconds (runner.Outcome timing).
	// The only host-dependent fields in a record; kept last so the
	// deterministic prefix of each line is stable, and omitted when zero
	// so logs from producers predating them round-trip unchanged.
	ElapsedNs   int64 `json:"elapsed_ns,omitempty"`
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`
}

// Failed reports whether the trial crashed instead of completing.
func (r Record) Failed() bool { return r.Error != "" }

// Key identifies a record's configuration: one cell of a sweep grid.
type Key struct {
	Graph     string
	Scheduler string
	Protocol  string
	DropRate  float64
}

// Key returns the record's configuration key.
func (r Record) Key() Key {
	return Key{Graph: r.Graph, Scheduler: r.Scheduler, Protocol: r.Protocol, DropRate: r.DropRate}
}

// Write encodes records as JSON Lines through internal/jsonl. The output
// is deterministic: records are written in slice order with fixed field
// order.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	lines := jsonl.NewWriter(bw)
	for i := range recs {
		if err := lines.Write(&recs[i]); err != nil {
			return fmt.Errorf("results: encoding record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read decodes a JSON Lines stream previously produced by Write. Blank
// lines are skipped; any malformed line is an error.
func Read(r io.Reader) ([]Record, error) { return jsonl.ReadAll[Record](r) }

// ForEach decodes a JSON Lines stream one record at a time, calling fn
// for each — the streaming sibling of Read for consumers (merge,
// aggregation) that must not hold every record in memory. Blank lines
// are skipped; a malformed line, a line over jsonl.MaxLine or an error
// from fn stops the scan.
func ForEach(r io.Reader, fn func(Record) error) error { return jsonl.ForEach(r, fn) }

// Group summarizes all trials of one configuration.
type Group struct {
	Key
	N, M int
	// Trials is the total trial count; Stabilized of them reached a
	// stable configuration before the step cap; Failed of them crashed
	// (Record.Error set) instead of completing.
	Trials, Stabilized, Failed int
	// Steps summarizes the stabilization times of the stabilized trials
	// (zero value when none stabilized).
	Steps stats.Summary
	// BackupMean is the mean number of backup-phase nodes per completed
	// (non-crashed) trial; 0 when every trial crashed.
	BackupMean float64
	// ElapsedMeanNs is the mean wall-clock time per completed trial in
	// nanoseconds; 0 when the records carry no timing (older logs).
	ElapsedMeanNs float64
}

// Aggregate groups records by configuration key, preserving first-
// appearance order, and summarizes each group's stabilization times. It
// is a convenience wrapper over Accumulator for callers that already
// hold the full record slice.
func Aggregate(recs []Record) []Group {
	acc := NewAccumulator()
	for _, rec := range recs {
		acc.Add(rec)
	}
	return acc.Groups()
}

// Accumulator aggregates records one at a time into per-configuration
// groups without retaining the records: step statistics accumulate in a
// mergeable stats.Stream per group (count/mean/M2 plus a fixed-size
// quantile sketch), so aggregating a million-trial log costs O(groups)
// memory. Records added in the same order always produce the same
// groups — the byte-determinism path for summary tables is "feed the
// canonical (grid-ordered) record stream to one Accumulator", which is
// what both a solo sweep and a shard merge do.
type Accumulator struct {
	index  map[Key]int
	groups []*accGroup
}

// accGroup is a Group under construction plus its running accumulators.
type accGroup struct {
	Group
	steps     stats.Stream
	backupSum float64
	elapsedNs float64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{index: make(map[Key]int)}
}

// Add folds one record into its configuration group, creating the group
// in first-appearance order.
func (a *Accumulator) Add(rec Record) {
	k := rec.Key()
	i, ok := a.index[k]
	if !ok {
		i = len(a.groups)
		a.index[k] = i
		a.groups = append(a.groups, &accGroup{Group: Group{Key: k, N: rec.N, M: rec.M}})
	}
	g := a.groups[i]
	g.Trials++
	g.backupSum += float64(rec.Backup)
	if rec.Failed() {
		g.Failed++
		return
	}
	g.elapsedNs += float64(rec.ElapsedNs)
	if rec.Stabilized {
		g.Stabilized++
		g.steps.Add(float64(rec.Steps))
	}
}

// Groups finalizes and returns the aggregated groups in first-appearance
// order. The accumulator stays usable: more records may be added and
// Groups called again.
func (a *Accumulator) Groups() []Group {
	out := make([]Group, 0, len(a.groups))
	for _, g := range a.groups {
		final := g.Group
		if g.steps.Count > 0 {
			final.Steps = g.steps.Summary()
		}
		// Crashed trials report Backup = 0 vacuously; averaging over them
		// would dilute the statistic, so divide by completed trials only.
		// Same for wall time: a crashed trial's timing measures the crash.
		if completed := g.Trials - g.Failed; completed > 0 {
			final.BackupMean = g.backupSum / float64(completed)
			final.ElapsedMeanNs = g.elapsedNs / float64(completed)
		}
		out = append(out, final)
	}
	return out
}

// SummaryTable renders aggregated groups as one table row per
// configuration. Step statistics of a group in which no trial stabilized
// are rendered as "—" (not the zero value, which read as instant
// stabilization); crashed trials show up as an error count in the stab
// column.
func SummaryTable(title string, groups []Group) *table.Table {
	t := table.New(title,
		"graph", "n", "m", "sched", "protocol", "drop", "steps(mean)", "±95%",
		"median", "max", "stab", "backup", "time(ms)")
	for _, g := range groups {
		sched := g.Scheduler
		if sched == "" {
			sched = "uniform"
		}
		stab := fmt.Sprintf("%d/%d", g.Stabilized, g.Trials)
		if g.Failed > 0 {
			stab += fmt.Sprintf(" (%d err)", g.Failed)
		}
		// Wall time per completed trial; records without timing (older
		// logs) render as a dash rather than a misleading 0.
		timeCell := any("—")
		if g.ElapsedMeanNs > 0 {
			timeCell = g.ElapsedMeanNs / 1e6
		}
		if g.Stabilized == 0 {
			t.AddRow(g.Graph, g.N, g.M, sched, g.Protocol, g.DropRate,
				"—", "—", "—", "—", stab, g.BackupMean, timeCell)
			continue
		}
		t.AddRow(g.Graph, g.N, g.M, sched, g.Protocol, g.DropRate,
			g.Steps.Mean, g.Steps.CI95(), g.Steps.Median, g.Steps.Max,
			stab, g.BackupMean, timeCell)
	}
	return t
}
