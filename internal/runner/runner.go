// Package runner is the batch trial scheduler: it fans independent
// simulation trials across a worker pool while keeping results
// deterministic. Every trial carries its own explicit seed, derived from
// a base seed and the trial index, and outcomes are returned in job
// order, so a batch produces byte-identical results at one worker and at
// runtime.NumCPU() workers. Trials are crash-isolated: a panicking trial
// is recorded as a failed Outcome instead of taking down the process.
//
// The experiment harness (internal/exp), cmd/popsim and cmd/sweep all
// execute their trials through this package.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// goldenGamma is the 64-bit golden-ratio increment used to derive
// per-trial seeds; distinct trials land in well-separated splitmix
// streams.
const goldenGamma = 0x9e3779b97f4a7c15

// SeedFor derives the deterministic seed of trial i (0-based) from a
// base seed. The derivation is position-only: it does not depend on
// worker count or scheduling order.
func SeedFor(base uint64, trial int) uint64 {
	return base + goldenGamma*uint64(trial+1)
}

// Job is one independent simulation trial: a protocol instance from New
// runs on Graph with a private generator seeded from Seed.
type Job struct {
	Graph graph.Graph
	// New must return a fresh protocol instance; instances are never
	// shared between concurrently running jobs.
	New  func() sim.Protocol
	Seed uint64
	Opts sim.Options
}

// Outcome is the result of one Job.
type Outcome struct {
	Result sim.Result
	// Backup is the number of nodes that entered the protocol's backup
	// phase (0 for protocols without one).
	Backup int
	// Err is the failure message when the trial did not complete: an
	// invalid run configuration rejected by sim.Compile (tiny graph,
	// drop rate outside [0, 1), scheduler built for a different graph),
	// or the panic message when the trial crashed (e.g. a protocol
	// rejecting its graph at Reset inside a sweep grid); empty on
	// success. A failed trial has Result.Stabilized = false and
	// Leader = -1, and never takes down the batch: the pool records the
	// failure and keeps draining the remaining jobs.
	Err string
	// ElapsedNs is the trial's wall-clock execution time and QueueWaitNs
	// the time it spent waiting between batch submission and a worker
	// picking it up, both in nanoseconds. Timing is host- and
	// load-dependent — everything else in an Outcome is deterministic for
	// a fixed seed, so determinism comparisons go through Same, not
	// struct equality.
	ElapsedNs   int64
	QueueWaitNs int64
}

// Same reports whether two outcomes agree on every deterministic field
// (result, backup count, error), ignoring the wall-clock timing.
func (o Outcome) Same(other Outcome) bool {
	return o.Result == other.Result && o.Backup == other.Backup && o.Err == other.Err
}

// Failed reports whether the trial crashed instead of completing.
func (o Outcome) Failed() bool { return o.Err != "" }

// backupReporter is implemented by protocols with a backup phase.
type backupReporter interface{ InBackup() int }

// Pool schedules jobs across worker goroutines.
type Pool struct {
	// Workers is the number of concurrent trials; <= 0 means
	// GOMAXPROCS(0).
	Workers int
	// Progress, if non-nil, receives completion updates with the number
	// of finished trials and the total. Calls are serialized on a
	// dedicated goroutine, off the workers' critical path: a slow
	// callback coalesces updates (counts stay strictly increasing and the
	// final call always reports done == total) instead of serializing
	// trial completion.
	Progress func(done, total int)
	// Meter, if non-nil, aggregates flight-recorder telemetry for the
	// batch. Each worker feeds a private shard — engine accounting via
	// sim.Options.Meter plus per-trial wall-time and queue-wait — and
	// folds it into Meter as each dispatch unit completes, before the
	// unit counts as done: Meter's lock is taken once per unit, not twice
	// per trial, a live reader (the -pprof /metrics endpoint) sees the
	// run progress, and Meter covers every trial Progress has reported.
	// Jobs that already carry their own Opts.Meter keep it.
	Meter *telemetry.Counters
	// Journal, if non-nil, receives a "run" span covering the whole
	// batch. Nil is fine: a nil journal records nothing.
	Journal *telemetry.Journal
}

// Run executes all jobs and returns their outcomes in job order,
// independent of worker count. It blocks until every job has finished.
func (p Pool) Run(jobs []Job) []Outcome {
	outcomes := make([]Outcome, len(jobs))
	p.Stream(jobs, func(i int, o Outcome) { outcomes[i] = o })
	return outcomes
}

// Stream executes all jobs and delivers each outcome exactly once via
// emit — serialized on a single goroutine, in job order, as soon as the
// outcome and all its predecessors are available. This is the
// cell-completion seam streaming consumers build on: a JSONL writer can
// flush record i the moment trials 0..i have finished (no end-of-batch
// buffering), and a checkpoint can mark cell i completed knowing every
// earlier cell already flushed. Workers never block on emit; outcomes
// completing ahead of a straggler buffer in a reorder window (bounded by
// the batch in the worst case, by the in-flight spread in practice).
// Stream blocks until every job has finished and been delivered.
//
// Workers take jobs in contiguous units of unitSize jobs and hand each
// unit to the drainer as one completion, so short trials do not
// serialize on the drainer. Inside a unit every trial still runs on its
// own — crash recovery, ElapsedNs, QueueWaitNs and meter accounting are
// per trial — so outcomes do not depend on the unit size.
func (p Pool) Stream(jobs []Job, emit func(i int, o Outcome)) {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if len(jobs) == 0 {
		return
	}
	unit := unitSize(len(jobs), workers)
	units := (len(jobs) + unit - 1) / unit
	endBatch := p.Journal.Span("run", map[string]any{"trials": len(jobs), "workers": workers, "unit": unit})
	defer endBatch()
	var (
		start        = time.Now()
		next   int64 = -1
		done   atomic.Int64
		notify chan struct{}
		wg     sync.WaitGroup
		repWG  sync.WaitGroup
		emitWG sync.WaitGroup
	)
	// The drainer goroutine owns all emit calls: it reorders unit
	// completions into unit order and flushes every ready prefix. Units
	// tile the job list in ascending contiguous ranges, so emit sees a
	// strictly sequential 0,1,2,... stream whatever order workers finish
	// in.
	type completion struct {
		u    int
		outs []Outcome
	}
	completions := make(chan completion, workers)
	emitWG.Add(1)
	go func() {
		defer emitWG.Done()
		pending := make(map[int][]Outcome)
		flush := 0
		for c := range completions {
			pending[c.u] = c.outs
			for {
				outs, ok := pending[flush]
				if !ok {
					break
				}
				delete(pending, flush)
				for k, o := range outs {
					emit(flush*unit+k, o)
				}
				flush++
			}
		}
	}()
	if p.Progress != nil {
		// The reporter goroutine owns all Progress calls: workers only
		// bump the atomic counter and poke the buffered channel (never
		// blocking), so a slow callback coalesces updates rather than
		// stalling trial completion. Counts are strictly increasing
		// because one goroutine reads the monotone counter, and the
		// post-close report guarantees a final done == total call even
		// when the last notification was coalesced away.
		notify = make(chan struct{}, 1)
		repWG.Add(1)
		go func() {
			defer repWG.Done()
			last := int64(0)
			report := func() {
				if d := done.Load(); d > last {
					last = d
					p.Progress(int(d), len(jobs))
				}
			}
			for range notify {
				report()
			}
			report()
		}()
	}
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				u := int(atomic.AddInt64(&next, 1))
				if u >= units {
					return
				}
				lo := u * unit
				outs := make([]Outcome, min(lo+unit, len(jobs))-lo)
				var shard *telemetry.Counters
				if p.Meter != nil {
					shard = new(telemetry.Counters)
				}
				for k := range outs {
					j := jobs[lo+k]
					if shard != nil && j.Opts.Meter == nil {
						j.Opts.Meter = shard
					}
					queueWait := time.Since(start)
					t0 := time.Now()
					o := runOne(j)
					o.ElapsedNs = time.Since(t0).Nanoseconds()
					o.QueueWaitNs = queueWait.Nanoseconds()
					if shard != nil {
						shard.AddTrial(o.ElapsedNs, o.QueueWaitNs, o.Result.Stabilized, o.Failed())
					}
					outs[k] = o
				}
				if shard != nil {
					p.Meter.Merge(shard.Snapshot())
				}
				completions <- completion{u, outs}
				done.Add(int64(len(outs)))
				if notify != nil {
					select {
					case notify <- struct{}{}:
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	close(completions)
	emitWG.Wait()
	if notify != nil {
		close(notify)
		repWG.Wait()
	}
}

// unitSize is the number of consecutive jobs a worker takes at once:
// jobs/(64·workers) clamped to [1, 8]. Up to 8 trials per unit amortize
// the hand-off to the drainer, which otherwise caps throughput on
// streams of microsecond trials; at least 64 units per worker keep the
// straggler at the end of the stream small.
func unitSize(jobs, workers int) int {
	return min(max(jobs/(64*workers), 1), 8)
}

// Run executes jobs with the default pool (one worker per CPU).
func Run(jobs []Job) []Outcome { return Pool{}.Run(jobs) }

func runOne(j Job) (o Outcome) {
	// The recover only catches genuine crashes (a protocol panicking at
	// Reset or Step); configuration errors surface through sim.RunE
	// below without ever raising a panic.
	defer func() {
		if p := recover(); p != nil {
			o = Outcome{
				Result: sim.Result{Steps: 0, Stabilized: false, Leader: -1},
				Err:    fmt.Sprint(p),
			}
		}
	}()
	p := j.New()
	r := xrand.New(j.Seed)
	res, err := sim.RunE(j.Graph, p, r, j.Opts)
	if err != nil {
		return Outcome{
			Result: sim.Result{Steps: 0, Stabilized: false, Leader: -1},
			Err:    err.Error(),
		}
	}
	o = Outcome{Result: res}
	if br, ok := p.(backupReporter); ok {
		o.Backup = br.InBackup()
	}
	return o
}

// TrialJobs builds the standard batch: trials independent repetitions of
// factory() on g, seeding trial i with SeedFor(seed, i). trials < 1 is
// treated as 1.
func TrialJobs(g graph.Graph, factory func() sim.Protocol, seed uint64,
	trials int, opts sim.Options) []Job {
	if trials < 1 {
		trials = 1
	}
	jobs := make([]Job, trials)
	for i := range jobs {
		jobs[i] = Job{Graph: g, New: factory, Seed: SeedFor(seed, i), Opts: opts}
	}
	return jobs
}
