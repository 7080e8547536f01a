// Package telemetry is the simulator's flight recorder: lock-free
// counters fed by the execution engine and the batch runner, log-bucketed
// latency histograms, a JSONL span journal for phase timing, per-trial
// convergence trajectories, and the -pprof/-metrics debug endpoints the
// CLIs expose.
//
// The design constraint that shapes everything here is that telemetry
// must be provably free of determinism impact: nothing in this package
// ever touches a random stream or reorders work, counters are fed at
// chunk/run granularity from locals the kernels already maintain (never
// per-step atomics), and the disabled path — a nil *Counters, a nil
// *Journal — costs one predictable branch. sim's equivalence matrix
// asserts byte-identical Results, observer sequences and post-run RNG
// state with metrics on and off.
//
// Aggregation is mergeable by construction: a Snapshot is plain data,
// Snapshot.Merge is associative with the zero Snapshot as identity, and
// workers (or future sweep shards) each feed a private Counters whose
// snapshots combine into the whole. Wall-clock fields (histograms, span
// timings) are inherently host-dependent; everything else in a snapshot
// is deterministic for a fixed spec and seed.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// SnapshotSchema identifies the snapshot JSON layout; bump on breaking
// changes.
const SnapshotSchema = "popgraph-telemetry/v1"

// Counters is the live, concurrently writable metric sink. All fields
// update atomically, so one Counters may be shared by every worker of a
// pool — though the runner instead gives each worker a private shard per
// dispatch unit and merges it when the unit completes, keeping the hot
// path free of cache-line contention.
// The zero value is ready to use; a nil *Counters disables metering
// wherever one is accepted.
type Counters struct {
	steps    atomic.Int64
	chunks   atomic.Int64
	refills  atomic.Int64
	drops    atomic.Int64
	observes atomic.Int64

	trials     atomic.Int64
	stabilized atomic.Int64
	failed     atomic.Int64

	trialNs Histogram
	queueNs Histogram

	// kernels maps a dispatch label ("dense-uniform/table", "generic/step",
	// ...) to its run count. sync.Map keeps increments lock-free after a
	// label's first run; dispatch is recorded once per run, so the map is
	// never on a hot path.
	kernels sync.Map // string -> *atomic.Int64
}

// AddRun records one completed simulation run's engine accounting:
// steps executed, chunks driven, RNG block refills, dropped
// interactions, observer callbacks, and the kernel dispatch label the
// run executed on. The engine calls it once per run, from locals it
// accumulated for free, so metering adds a handful of atomic adds per
// run — nothing per step.
func (c *Counters) AddRun(steps, chunks, refills, drops, observes int64, kernel string) {
	c.steps.Add(steps)
	c.chunks.Add(chunks)
	c.refills.Add(refills)
	c.drops.Add(drops)
	c.observes.Add(observes)
	v, ok := c.kernels.Load(kernel)
	if !ok {
		v, _ = c.kernels.LoadOrStore(kernel, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
}

// AddTrial records one batch trial's outcome shape and latencies:
// elapsedNs is the trial's wall time, queueNs how long it waited for a
// worker slot.
func (c *Counters) AddTrial(elapsedNs, queueNs int64, stabilized, failed bool) {
	c.trials.Add(1)
	if stabilized {
		c.stabilized.Add(1)
	}
	if failed {
		c.failed.Add(1)
	}
	c.trialNs.Observe(elapsedNs)
	c.queueNs.Observe(queueNs)
}

// Snapshot copies the counters into plain mergeable data. Taken after
// workers quiesce, a snapshot is exact; taken live (the -pprof /metrics
// endpoint), it is a consistent-enough point-in-time read covering every
// completed dispatch unit. A nil c gives the all-zero snapshot.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{Schema: SnapshotSchema}
	}
	s := Snapshot{
		Schema:           SnapshotSchema,
		StepsExecuted:    c.steps.Load(),
		ChunksRun:        c.chunks.Load(),
		RNGRefills:       c.refills.Load(),
		DropsApplied:     c.drops.Load(),
		ObserverCalls:    c.observes.Load(),
		TrialsRun:        c.trials.Load(),
		TrialsStabilized: c.stabilized.Load(),
		TrialsFailed:     c.failed.Load(),
		TrialNs:          c.trialNs.Snapshot(),
		QueueWaitNs:      c.queueNs.Snapshot(),
	}
	c.kernels.Range(func(k, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != 0 {
			if s.KernelDispatch == nil {
				s.KernelDispatch = make(map[string]int64)
			}
			s.KernelDispatch[k.(string)] = n
		}
		return true
	})
	return s
}

// Merge folds a snapshot (typically a worker shard's) into the live
// counters.
func (c *Counters) Merge(s Snapshot) {
	c.steps.Add(s.StepsExecuted)
	c.chunks.Add(s.ChunksRun)
	c.refills.Add(s.RNGRefills)
	c.drops.Add(s.DropsApplied)
	c.observes.Add(s.ObserverCalls)
	c.trials.Add(s.TrialsRun)
	c.stabilized.Add(s.TrialsStabilized)
	c.failed.Add(s.TrialsFailed)
	mergeHist(&c.trialNs, s.TrialNs)
	mergeHist(&c.queueNs, s.QueueWaitNs)
	for k, n := range s.KernelDispatch {
		v, ok := c.kernels.Load(k)
		if !ok {
			v, _ = c.kernels.LoadOrStore(k, new(atomic.Int64))
		}
		v.(*atomic.Int64).Add(n)
	}
}

// mergeHist folds a histogram snapshot back into a live histogram.
func mergeHist(h *Histogram, s HistSnapshot) {
	if s.Count == 0 {
		return
	}
	for _, b := range s.Buckets {
		h.counts[bucketOf(b.Lo)].Add(b.Count)
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	atomicMin(&h.min, s.Min+1)
	atomicMax(&h.max, s.Max)
}

// Snapshot is a plain-data copy of a Counters, the unit of export and
// merging. The zero Snapshot is the Merge identity.
type Snapshot struct {
	Schema string `json:"schema,omitempty"`
	// StepsExecuted counts interactions executed (delivered or dropped)
	// across all runs; it equals the sum of per-trial Steps in the
	// results log, because the engine flushes exactly Result.Steps per
	// completed run and crashed trials flush nothing (and record 0).
	StepsExecuted int64 `json:"steps_executed"`
	// ChunksRun counts kernel chunk invocations; RNGRefills counts
	// 512-value block prefetches (so RNGRefills/ChunksRun and
	// StepsExecuted/RNGRefills expose whether runs are RNG-bound).
	ChunksRun  int64 `json:"chunks_run"`
	RNGRefills int64 `json:"rng_refills"`
	// DropsApplied counts interactions suppressed by the drop-rate fault
	// injector; ObserverCalls counts observer callbacks delivered.
	DropsApplied  int64 `json:"drops_applied"`
	ObserverCalls int64 `json:"observer_calls"`
	// Trial counts, as the batch runner saw them.
	TrialsRun        int64 `json:"trials_run"`
	TrialsStabilized int64 `json:"trials_stabilized"`
	TrialsFailed     int64 `json:"trials_failed,omitempty"`
	// KernelDispatch maps "scheduler-engine/protocol-engine" labels
	// (e.g. "clique-uniform/table") to the number of runs each compiled
	// kernel executed.
	KernelDispatch map[string]int64 `json:"kernel_dispatch,omitempty"`
	// TrialNs and QueueWaitNs are per-trial wall-time and queue-wait
	// distributions (nanoseconds, log-bucketed). Host-dependent.
	TrialNs     HistSnapshot `json:"trial_ns"`
	QueueWaitNs HistSnapshot `json:"queue_wait_ns"`
}

// Merge combines two snapshots; associative, with the zero Snapshot as
// identity, so shard snapshots fold in any order into the same whole.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := s
	if out.Schema == "" {
		out.Schema = o.Schema
	}
	out.StepsExecuted += o.StepsExecuted
	out.ChunksRun += o.ChunksRun
	out.RNGRefills += o.RNGRefills
	out.DropsApplied += o.DropsApplied
	out.ObserverCalls += o.ObserverCalls
	out.TrialsRun += o.TrialsRun
	out.TrialsStabilized += o.TrialsStabilized
	out.TrialsFailed += o.TrialsFailed
	out.TrialNs = s.TrialNs.Merge(o.TrialNs)
	out.QueueWaitNs = s.QueueWaitNs.Merge(o.QueueWaitNs)
	if len(o.KernelDispatch) > 0 {
		merged := make(map[string]int64, len(s.KernelDispatch)+len(o.KernelDispatch))
		for k, v := range s.KernelDispatch {
			merged[k] = v
		}
		for k, v := range o.KernelDispatch {
			merged[k] += v
		}
		out.KernelDispatch = merged
	}
	return out
}

// StepsPerSec is the aggregate per-worker throughput: total steps over
// total per-trial wall time. With W busy workers the batch-level rate is
// about W times this.
func (s Snapshot) StepsPerSec() float64 {
	if s.TrialNs.Sum <= 0 {
		return 0
	}
	return float64(s.StepsExecuted) / (float64(s.TrialNs.Sum) / 1e9)
}

// RefillsPerMStep returns RNG block refills per million steps, the
// "is the engine RNG-bound" headline.
func (s Snapshot) RefillsPerMStep() float64 {
	if s.StepsExecuted == 0 {
		return 0
	}
	return float64(s.RNGRefills) * 1e6 / float64(s.StepsExecuted)
}

// KernelMix renders the dispatch counts as "label:count" pairs in
// deterministic (sorted) order.
func (s Snapshot) KernelMix() []string {
	keys := make([]string, 0, len(s.KernelDispatch))
	for k := range s.KernelDispatch {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s:%d", k, s.KernelDispatch[k])
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON with a trailing
// newline. Map keys are sorted by encoding/json, so output is
// deterministic for a deterministic snapshot.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot previously produced by WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: parsing snapshot: %w", err)
	}
	if s.Schema != "" && s.Schema != SnapshotSchema {
		return Snapshot{}, fmt.Errorf("telemetry: unknown snapshot schema %q (want %q)", s.Schema, SnapshotSchema)
	}
	return s, nil
}

// WriteSnapshotFile snapshots c and writes it to path — the -metrics
// flag's implementation, shared by the CLIs. A nil c writes an empty
// (all-zero) snapshot, so callers don't need to special-case disabled
// metering.
func WriteSnapshotFile(path string, c *Counters) error {
	s := c.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
