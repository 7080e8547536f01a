// Package telemetry is the simulator's flight recorder: mergeable
// counters fed by the execution engine and the batch runner, log-bucketed
// latency histograms, a JSONL span journal for phase timing, the file
// format of per-trial convergence trajectories (sweep.Trajectory records
// them), and the -pprof/-metrics debug endpoints the CLIs expose.
//
// The design constraint that shapes everything here is that telemetry
// must be provably free of determinism impact: nothing in this package
// ever touches a random stream or reorders work, counters are fed at
// chunk/run granularity from locals the kernels already maintain (never
// per step), and the disabled path — a nil *Counters, a nil
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
)

// SnapshotSchema identifies the snapshot JSON layout; bump on breaking
// changes.
const SnapshotSchema = "popgraph-telemetry/v1"

// Counters is the live, concurrently writable metric sink: a mutex
// around a plain Snapshot, so every read is a consistent copy (trial
// counts always match their histograms) and a new metric is one
// Snapshot field plus one line in Snapshot.Merge. The runner gives each
// worker a private shard per dispatch unit and merges it when the unit
// completes, so the shared Counters sees one Merge per unit, not two
// calls per trial.
// The zero value is ready to use; a nil *Counters disables metering
// wherever one is accepted.
type Counters struct {
	mu sync.Mutex
	s  Snapshot
}

// AddRun records one completed simulation run's engine accounting:
// steps executed, chunks driven, RNG block refills, dropped
// interactions, observer callbacks, the kernel dispatch label the run
// executed on, and whether its sampler ran the prefetch lookahead. The
// engine calls it once per run, from locals it accumulated for free, so
// metering costs one lock per run — nothing per step.
func (c *Counters) AddRun(steps, chunks, refills, drops, observes int64, kernel string, prefetch bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prefetch {
		c.s.PrefetchRuns++
	}
	c.s.StepsExecuted += steps
	c.s.ChunksRun += chunks
	c.s.RNGRefills += refills
	c.s.DropsApplied += drops
	c.s.ObserverCalls += observes
	if c.s.KernelDispatch == nil {
		c.s.KernelDispatch = make(map[string]int64)
	}
	c.s.KernelDispatch[kernel]++
}

// AddTrial records one batch trial's outcome shape and latencies:
// elapsedNs is the trial's wall time, queueNs how long it waited for a
// worker slot.
func (c *Counters) AddTrial(elapsedNs, queueNs int64, stabilized, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.TrialsRun++
	if stabilized {
		c.s.TrialsStabilized++
	}
	if failed {
		c.s.TrialsFailed++
	}
	c.s.TrialNs.Add(elapsedNs)
	c.s.QueueWaitNs.Add(queueNs)
}

// Snapshot returns a deep copy of the counters. Taken after workers
// quiesce, a snapshot is exact; taken live (the -pprof /metrics
// endpoint), it is a consistent point-in-time read covering every
// completed dispatch unit. A nil c gives the all-zero snapshot.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{Schema: SnapshotSchema}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{Schema: SnapshotSchema}.Merge(c.s)
}

// Merge folds a snapshot (typically a worker shard's) into the live
// counters.
func (c *Counters) Merge(s Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s = c.s.Merge(s)
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
	// PrefetchRuns counts the runs whose sampler prefetched ahead of its
	// draws (sim.ExecPlan.Prefetch): graphs that overflow the cache.
	PrefetchRuns int64 `json:"prefetch_runs"`
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
	out.PrefetchRuns += o.PrefetchRuns
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
