package runner

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"popgraph/internal/graph"
	"popgraph/internal/protocols/beauquier"
	"popgraph/internal/protocols/star"
	"popgraph/internal/sim"
	"popgraph/internal/telemetry"
)

func factory() sim.Protocol { return beauquier.New() }

func TestSeedForMatchesLegacyDerivation(t *testing.T) {
	// The experiment harness derived trial seeds as
	// seed + gamma*(i+1) before the runner existed; published numbers
	// depend on it, so SeedFor must reproduce it exactly.
	const base = 12345
	for i := 0; i < 4; i++ {
		want := uint64(base) + 0x9e3779b97f4a7c15*uint64(i+1)
		if got := SeedFor(base, i); got != want {
			t.Fatalf("SeedFor(%d, %d) = %d, want %d", base, i, got, want)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	g := graph.NewClique(16)
	jobs := TrialJobs(g, factory, 99, 12, sim.Options{})
	serial := Pool{Workers: 1}.Run(jobs)
	parallel := Pool{Workers: runtime.NumCPU()}.Run(jobs)
	if len(serial) != 12 || len(parallel) != 12 {
		t.Fatalf("outcome counts %d, %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !serial[i].Same(parallel[i]) {
			t.Fatalf("trial %d diverged: serial %+v parallel %+v",
				i, serial[i], parallel[i])
		}
		if !serial[i].Result.Stabilized || serial[i].Result.Steps <= 0 {
			t.Fatalf("trial %d did not stabilize: %+v", i, serial[i])
		}
	}
}

func TestRunWithDropRateDeterministic(t *testing.T) {
	g := graph.Cycle(12)
	jobs := TrialJobs(g, factory, 7, 6, sim.Options{DropRate: 0.5})
	a := Pool{Workers: 1}.Run(jobs)
	b := Pool{Workers: 4}.Run(jobs)
	for i := range a {
		if !a[i].Same(b[i]) {
			t.Fatalf("trial %d diverged under drops: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScriptedSamplerThroughRunner(t *testing.T) {
	// The star protocol stabilizes on the first interaction, so a
	// one-pair script is a complete deterministic run.
	g := graph.Star(5)
	jobs := []Job{{
		Graph: g,
		New:   func() sim.Protocol { return star.New() },
		Seed:  1,
		Opts: sim.Options{
			Scheduler: &sim.ScriptedSampler{Pairs: [][2]int{{0, 3}}},
			MaxSteps:  1,
		},
	}}
	out := Run(jobs)
	if len(out) != 1 || !out[0].Result.Stabilized || out[0].Result.Steps != 1 {
		t.Fatalf("scripted run outcome %+v", out)
	}
	if out[0].Result.Leader != 0 {
		t.Fatalf("leader %d, want center 0", out[0].Result.Leader)
	}
}

func TestProgressMonotonicAndFinal(t *testing.T) {
	g := graph.NewClique(8)
	jobs := TrialJobs(g, factory, 3, 9, sim.Options{})
	for _, workers := range []int{1, 4} {
		var dones []int
		pool := Pool{Workers: workers, Progress: func(done, total int) {
			// Calls come from one reporter goroutine; no locking needed.
			if total != 9 {
				t.Errorf("total %d, want 9", total)
			}
			dones = append(dones, done)
		}}
		pool.Run(jobs)
		// Updates may coalesce under a slow or busy reporter, so the
		// contract is strict monotonicity plus a guaranteed final call —
		// not one call per trial.
		if len(dones) == 0 {
			t.Fatal("progress never called")
		}
		for i := 1; i < len(dones); i++ {
			if dones[i] <= dones[i-1] {
				t.Fatalf("progress counts not strictly increasing: %v", dones)
			}
		}
		if last := dones[len(dones)-1]; last != 9 {
			t.Fatalf("final progress count %d, want 9 (calls: %v)", last, dones)
		}
	}
}

// TestSlowProgressDoesNotSerializeTrials is the regression test for the
// pool calling Progress while holding its completion lock: a slow
// callback used to gate every trial completion, so a batch took at
// least trials × callback-time regardless of worker count. The callback
// now runs on a dedicated reporter goroutine with coalescing, so the
// batch finishes on simulation time, not callback time.
func TestSlowProgressDoesNotSerializeTrials(t *testing.T) {
	g := graph.NewClique(8)
	const trials = 12
	jobs := TrialJobs(g, factory, 3, trials, sim.Options{})
	const callbackDelay = 30 * time.Millisecond
	var calls atomic.Int64
	pool := Pool{Workers: 4, Progress: func(done, total int) {
		calls.Add(1)
		time.Sleep(callbackDelay)
	}}
	start := time.Now()
	pool.Run(jobs)
	elapsed := time.Since(start)
	// Under the old serialized behaviour this takes >= trials ×
	// callbackDelay = 360ms; coalescing needs only a handful of calls.
	// The bound is loose (half the serialized floor) to stay robust on
	// slow CI machines.
	if elapsed >= trials*callbackDelay/2 {
		t.Fatalf("batch took %v with a %v callback — progress still serializes trials (%d calls)",
			elapsed, callbackDelay, calls.Load())
	}
	if calls.Load() == 0 {
		t.Fatal("progress never called")
	}
}

// TestPoolMeterAggregates — a pool-level meter must see every trial —
// steps equal to the sum of per-outcome steps, one dispatch per trial,
// trial latency histogram counts matching — via per-worker shards
// merged after the drain.
func TestPoolMeterAggregates(t *testing.T) {
	g := graph.NewClique(12)
	const trials = 10
	jobs := TrialJobs(g, factory, 11, trials, sim.Options{})
	meter := new(telemetry.Counters)
	outs := Pool{Workers: 4, Meter: meter}.Run(jobs)
	s := meter.Snapshot()
	var wantSteps int64
	var wantStab int64
	for _, o := range outs {
		wantSteps += o.Result.Steps
		if o.Result.Stabilized {
			wantStab++
		}
	}
	if s.StepsExecuted != wantSteps {
		t.Fatalf("meter steps %d, outcomes sum %d", s.StepsExecuted, wantSteps)
	}
	if s.TrialsRun != trials || s.TrialsStabilized != wantStab || s.TrialsFailed != 0 {
		t.Fatalf("trial counts: %+v", s)
	}
	if s.TrialNs.Count != trials || s.QueueWaitNs.Count != trials {
		t.Fatalf("latency histogram counts: trial %d queue %d, want %d",
			s.TrialNs.Count, s.QueueWaitNs.Count, trials)
	}
	var runs int64
	for _, c := range s.KernelDispatch {
		runs += c
	}
	if runs != trials {
		t.Fatalf("kernel dispatch runs %d, want %d (%v)", runs, trials, s.KernelDispatch)
	}
	var sawElapsed bool
	for _, o := range outs {
		if o.ElapsedNs < 0 || o.QueueWaitNs < 0 {
			t.Fatalf("negative timing: %+v", o)
		}
		if o.ElapsedNs > 0 {
			sawElapsed = true
		}
	}
	if !sawElapsed {
		t.Fatal("no outcome recorded elapsed time")
	}
}

// TestPoolMeterCountsFailedTrials — a crashed trial flushes no engine
// accounting (its recorded steps are 0) but is still counted as a
// failed trial, keeping snapshot steps equal to the results-log sum.
func TestPoolMeterCountsFailedTrials(t *testing.T) {
	clique := graph.NewClique(8)
	jobs := []Job{
		{Graph: clique, New: factory, Seed: 1, Opts: sim.Options{}},
		{Graph: clique, New: func() sim.Protocol { return star.New() }, Seed: 2, Opts: sim.Options{}},
	}
	meter := new(telemetry.Counters)
	outs := Pool{Workers: 2, Meter: meter}.Run(jobs)
	s := meter.Snapshot()
	if s.TrialsRun != 2 || s.TrialsFailed != 1 {
		t.Fatalf("trial counts: %+v", s)
	}
	if want := outs[0].Result.Steps + outs[1].Result.Steps; s.StepsExecuted != want {
		t.Fatalf("meter steps %d, outcomes sum %d", s.StepsExecuted, want)
	}
}

func TestPoolJournalRecordsRunSpan(t *testing.T) {
	g := graph.NewClique(8)
	jobs := TrialJobs(g, factory, 5, 3, sim.Options{})
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	Pool{Workers: 2, Journal: j}.Run(jobs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Span != "run" {
		t.Fatalf("journal records: %+v", recs)
	}
	if recs[0].Attrs["trials"] != 3.0 || recs[0].Attrs["workers"] != 2.0 || recs[0].Attrs["unit"] != 1.0 {
		t.Fatalf("run span attrs: %+v", recs[0].Attrs)
	}
}

// TestPanickingTrialIsIsolated — one crashing trial (star protocol on a
// non-star graph, the sweep-grid scenario) must yield a failed Outcome
// while every other job in the batch still completes — previously the
// panic escaped the worker goroutine and killed the whole process.
func TestPanickingTrialIsIsolated(t *testing.T) {
	clique := graph.NewClique(8)
	jobs := []Job{
		{Graph: clique, New: factory, Seed: 1, Opts: sim.Options{}},
		{Graph: clique, New: func() sim.Protocol { return star.New() }, Seed: 2, Opts: sim.Options{}},
		{Graph: clique, New: factory, Seed: 3, Opts: sim.Options{}},
	}
	for _, workers := range []int{1, 4} {
		out := Pool{Workers: workers}.Run(jobs)
		if len(out) != 3 {
			t.Fatalf("got %d outcomes", len(out))
		}
		bad := out[1]
		if !bad.Failed() || bad.Err == "" {
			t.Fatalf("crashed trial outcome %+v, want Failed", bad)
		}
		if bad.Result.Stabilized || bad.Result.Leader != -1 || bad.Result.Steps != 0 {
			t.Fatalf("crashed trial result %+v", bad.Result)
		}
		for _, i := range []int{0, 2} {
			if out[i].Failed() || !out[i].Result.Stabilized {
				t.Fatalf("healthy trial %d outcome %+v", i, out[i])
			}
		}
	}
}

func TestTrialJobsFloorsAtOne(t *testing.T) {
	g := graph.NewClique(4)
	if got := len(TrialJobs(g, factory, 1, 0, sim.Options{})); got != 1 {
		t.Fatalf("TrialJobs with 0 trials built %d jobs, want 1", got)
	}
}

func TestRunEmpty(t *testing.T) {
	if got := Run(nil); len(got) != 0 {
		t.Fatalf("Run(nil) returned %d outcomes", len(got))
	}
}

// TestRunSurfacesCompileErrors — an invalid run configuration (here a
// drop rate outside [0, 1)) must surface as the trial's Outcome.Err via
// sim.RunE's error return — not by recovering a panic — and must not
// take down the batch.
func TestRunSurfacesCompileErrors(t *testing.T) {
	g := graph.NewClique(8)
	bad := TrialJobs(g, factory, 3, 1, sim.Options{DropRate: 1.5})
	good := TrialJobs(g, factory, 3, 1, sim.Options{})
	outs := Pool{Workers: 2}.Run(append(bad, good...))
	if !outs[0].Failed() || !strings.Contains(outs[0].Err, "drop rate") {
		t.Fatalf("bad config outcome %+v, want drop-rate error", outs[0])
	}
	if outs[0].Result.Stabilized || outs[0].Result.Leader != -1 {
		t.Fatalf("failed trial carries a result: %+v", outs[0].Result)
	}
	if outs[1].Failed() || !outs[1].Result.Stabilized {
		t.Fatalf("good trial after failed one: %+v", outs[1])
	}
}

// TestStreamDeliversInJobOrder — Stream's cell-completion callback fires
// exactly once per job, in strictly ascending job order, on a single
// goroutine, whatever order the workers finish in — and the streamed
// outcomes agree with Run's.
func TestStreamDeliversInJobOrder(t *testing.T) {
	g := graph.NewClique(12)
	jobs := TrialJobs(g, factory, 4242, 40, sim.Options{})
	want := Pool{Workers: 1}.Run(jobs)
	for _, workers := range []int{1, 3, runtime.NumCPU()} {
		var order []int
		var got []Outcome
		Pool{Workers: workers}.Stream(jobs, func(i int, o Outcome) {
			// No locking: emit is specified to be serialized; the race
			// detector run makes this assertion real.
			order = append(order, i)
			got = append(got, o)
		})
		if len(order) != len(jobs) {
			t.Fatalf("workers=%d: %d emits, want %d", workers, len(order), len(jobs))
		}
		for i, idx := range order {
			if idx != i {
				t.Fatalf("workers=%d: emit %d delivered job %d (out of order)", workers, i, idx)
			}
			if !got[i].Same(want[i]) {
				t.Fatalf("workers=%d: streamed outcome %d differs from Run's", workers, i)
			}
		}
	}
}

// TestStreamProgressAndMeterStillWork — the streaming path keeps the
// pool's progress callbacks and meter shards wired up.
func TestStreamProgressAndMeterStillWork(t *testing.T) {
	g := graph.NewClique(8)
	jobs := TrialJobs(g, factory, 7, 10, sim.Options{})
	meter := new(telemetry.Counters)
	var last atomic.Int64
	var steps int64
	Pool{Workers: 4, Meter: meter, Progress: func(done, total int) {
		last.Store(int64(done))
		if total != 10 {
			panic("bad total")
		}
	}}.Stream(jobs, func(_ int, o Outcome) { steps += o.Result.Steps })
	if last.Load() != 10 {
		t.Fatalf("final progress %d, want 10", last.Load())
	}
	if got := meter.Snapshot().StepsExecuted; got != steps {
		t.Fatalf("meter steps %d, streamed sum %d", got, steps)
	}
}

// TestMeterIsLiveAtFinalProgress reads the meter from inside the final
// Progress callback, the way a -pprof /metrics reader sees it while the
// pool still runs: every reported trial must already be in Meter, not
// only after Stream returns.
func TestMeterIsLiveAtFinalProgress(t *testing.T) {
	g := graph.NewClique(8)
	jobs := TrialJobs(g, factory, 11, 64, sim.Options{})
	for _, workers := range []int{1, 3} {
		meter := new(telemetry.Counters)
		var atFinal telemetry.Snapshot
		var steps int64
		Pool{Workers: workers, Meter: meter, Progress: func(done, total int) {
			if done == total {
				atFinal = meter.Snapshot()
			}
		}}.Stream(jobs, func(_ int, o Outcome) { steps += o.Result.Steps })
		if atFinal.TrialsRun != int64(len(jobs)) || atFinal.StepsExecuted != steps {
			t.Fatalf("workers=%d: meter at the final progress call has %d trials and %d steps, want %d and %d",
				workers, atFinal.TrialsRun, atFinal.StepsExecuted, len(jobs), steps)
		}
		if got := meter.Snapshot(); got.TrialsRun != int64(len(jobs)) {
			t.Fatalf("workers=%d: meter after Stream has %d trials, want %d", workers, got.TrialsRun, len(jobs))
		}
	}
}
