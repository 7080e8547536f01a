package runner

import (
	"fmt"
	"testing"

	"popgraph/internal/graph"
	"popgraph/internal/protocols/star"
	"popgraph/internal/sim"
	"popgraph/internal/telemetry"
)

func TestUnitSize(t *testing.T) {
	for _, c := range []struct{ jobs, workers, want int }{
		{1, 1, 1},
		{63, 1, 1},
		{128, 1, 2},
		{1000, 1, 8},
		{1 << 20, 1, 8},
		{1000, 2, 7},
		{1000, 3, 5},
		{1000, 8, 1},
		{105000, 2, 8},
	} {
		if got := unitSize(c.jobs, c.workers); got != c.want {
			t.Errorf("unitSize(%d, %d) = %d, want %d", c.jobs, c.workers, got, c.want)
		}
	}
}

// soloOutcomes runs every job in a pool of its own, so each trial is
// dispatched in a unit of one: the reference unit dispatch must match.
func soloOutcomes(jobs []Job, meter *telemetry.Counters) []Outcome {
	outs := make([]Outcome, len(jobs))
	for i := range jobs {
		outs[i] = Pool{Workers: 1, Meter: meter}.Run(jobs[i : i+1])[0]
	}
	return outs
}

// TestStreamBatchedMatchesStream — Stream must deliver, for every
// worker count (and so every unit size), the same deterministic
// outcomes as running each trial alone, in strictly ascending job order
// on one goroutine.
func TestStreamBatchedMatchesStream(t *testing.T) {
	g := graph.NewClique(12)
	jobs := TrialJobs(g, factory, 99, 300, sim.Options{})
	want := soloOutcomes(jobs, nil)
	for _, workers := range []int{1, 2, 4} {
		if unitSize(len(jobs), workers) == 1 && workers < 4 {
			t.Fatalf("workers=%d: unit size 1, want a multi-trial unit", workers)
		}
		nextIdx := 0
		Pool{Workers: workers}.Stream(jobs, func(i int, o Outcome) {
			if i != nextIdx {
				t.Errorf("workers=%d: emitted job %d, want %d", workers, i, nextIdx)
			}
			nextIdx++
			if !o.Same(want[i]) {
				t.Errorf("workers=%d: job %d outcome %+v, solo %+v", workers, i, o, want[i])
			}
		})
		if nextIdx != len(jobs) {
			t.Fatalf("workers=%d: %d of %d outcomes delivered", workers, nextIdx, len(jobs))
		}
	}
}

// TestRunBatchedCrashIsolation — a trial panicking at Reset (star
// protocol on a clique) in the middle of a multi-trial unit fails its
// own trial with the solo panic message while the rest of its unit
// completes.
func TestRunBatchedCrashIsolation(t *testing.T) {
	clique := graph.NewClique(8)
	jobs := TrialJobs(clique, factory, 3, 200, sim.Options{})
	if unitSize(len(jobs), 1) < 3 {
		t.Fatalf("unit size %d, want the crash inside a multi-trial unit", unitSize(len(jobs), 1))
	}
	jobs[1].New = func() sim.Protocol { return star.New() }
	want := soloOutcomes(jobs, nil)
	got := Pool{Workers: 1}.Run(jobs)
	for i := range want {
		if !got[i].Same(want[i]) {
			t.Fatalf("job %d: unit-dispatched %+v, solo %+v", i, got[i], want[i])
		}
	}
	if !got[1].Failed() || got[1].Err == "" {
		t.Fatalf("crashed trial outcome %+v, want Failed", got[1])
	}
	for _, i := range []int{0, 2} {
		if got[i].Failed() || !got[i].Result.Stabilized {
			t.Fatalf("unit neighbour %d of the crash: %+v, want a stabilized run", i, got[i])
		}
	}
}

// TestStreamBatchedMeterAndProgress — per-worker telemetry shards of a
// unit-dispatched stream merge into the same deterministic aggregate as
// running each trial alone, and Progress stays strictly increasing,
// ending at done == total.
func TestStreamBatchedMeterAndProgress(t *testing.T) {
	g := graph.NewClique(12)
	jobs := TrialJobs(g, factory, 7, 400, sim.Options{})
	soloMeter := new(telemetry.Counters)
	soloOutcomes(jobs, soloMeter)
	solo := soloMeter.Snapshot()

	for _, workers := range []int{1, 3} {
		meter := new(telemetry.Counters)
		last := 0
		Pool{Workers: workers, Meter: meter, Progress: func(done, total int) {
			if done <= last || total != len(jobs) {
				t.Errorf("workers=%d: progress (%d, %d) after %d", workers, done, total, last)
			}
			last = done
		}}.Stream(jobs, func(int, Outcome) {})
		if last != len(jobs) {
			t.Fatalf("workers=%d: final progress %d, want %d", workers, last, len(jobs))
		}
		got := meter.Snapshot()
		if got.StepsExecuted != solo.StepsExecuted || got.ChunksRun != solo.ChunksRun ||
			got.RNGRefills != solo.RNGRefills || got.DropsApplied != solo.DropsApplied ||
			got.TrialsRun != solo.TrialsRun || got.TrialsStabilized != solo.TrialsStabilized {
			t.Fatalf("workers=%d: unit-dispatched snapshot %+v, solo %+v", workers, got, solo)
		}
		if len(got.KernelDispatch) != len(solo.KernelDispatch) {
			t.Fatalf("workers=%d: dispatch %v, solo %v", workers, got.KernelDispatch, solo.KernelDispatch)
		}
		for k, v := range solo.KernelDispatch {
			if got.KernelDispatch[k] != v {
				t.Fatalf("workers=%d: dispatch %v, solo %v", workers, got.KernelDispatch, solo.KernelDispatch)
			}
		}
	}
}

// TestStreamUnitDispatch drives Stream across job counts on both sides
// of the unit-size thresholds and checks, per case, that dispatching
// jobs in units leaves every per-trial contract intact: each index is
// emitted once and in order, progress is strictly increasing up to
// done == total, a panicking job fails only its own outcome, every
// outcome carries its own timing, and the merged meter counts each
// trial once.
func TestStreamUnitDispatch(t *testing.T) {
	clique := graph.NewClique(8)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, 64*workers - 1, 64*workers + 1, 1000} {
			t.Run(fmt.Sprintf("workers%d/jobs%d", workers, n), func(t *testing.T) {
				jobs := TrialJobs(clique, factory, 31, max(n, 1), sim.Options{})[:n]
				// The star protocol rejects a clique at Reset, so every 97th
				// job panics mid-unit.
				crashes := 0
				for i := 5; i < n; i += 97 {
					jobs[i].New = func() sim.Protocol { return star.New() }
					crashes++
				}
				meter := new(telemetry.Counters)
				var dones []int
				outs := make([]Outcome, 0, n)
				Pool{Workers: workers, Meter: meter, Progress: func(done, total int) {
					if total != n {
						t.Errorf("progress total %d, want %d", total, n)
					}
					dones = append(dones, done)
				}}.Stream(jobs, func(i int, o Outcome) {
					// emit runs on the drainer goroutine: report, don't FailNow.
					if i != len(outs) {
						t.Errorf("emit delivered job %d, want %d", i, len(outs))
					}
					outs = append(outs, o)
				})
				if t.Failed() || len(outs) != n {
					t.Fatalf("%d emits, want %d", len(outs), n)
				}

				for i := 1; i < len(dones); i++ {
					if dones[i] <= dones[i-1] {
						t.Fatalf("progress not strictly increasing: %v", dones)
					}
				}
				if n > 0 && (len(dones) == 0 || dones[len(dones)-1] != n) {
					t.Fatalf("progress %v does not end at %d", dones, n)
				}

				unit := 1
				if n > 0 {
					unit = unitSize(n, min(workers, n))
				}
				for i, o := range outs {
					wantFail := i >= 5 && (i-5)%97 == 0
					if o.Failed() != wantFail {
						t.Fatalf("job %d: failed=%v (%q), want %v", i, o.Failed(), o.Err, wantFail)
					}
					if !wantFail && !o.Result.Stabilized {
						t.Fatalf("job %d did not stabilize: %+v", i, o)
					}
					if o.ElapsedNs <= 0 {
						t.Fatalf("job %d: ElapsedNs = %d", i, o.ElapsedNs)
					}
					// Queue wait is taken at each trial's own start, so a
					// trial waits at least as long as its unit predecessor
					// waited and ran.
					if i%unit != 0 {
						prev := outs[i-1]
						if o.QueueWaitNs < prev.QueueWaitNs+prev.ElapsedNs {
							t.Fatalf("job %d: queue wait %d < predecessor's wait %d + run %d",
								i, o.QueueWaitNs, prev.QueueWaitNs, prev.ElapsedNs)
						}
					}
				}

				s := meter.Snapshot()
				if s.TrialsRun != int64(n) || s.TrialsFailed != int64(crashes) {
					t.Fatalf("meter counted %d trials (%d failed), want %d (%d)",
						s.TrialsRun, s.TrialsFailed, n, crashes)
				}
				if s.TrialNs.Count != int64(n) {
					t.Fatalf("meter trial histogram holds %d samples, want %d", s.TrialNs.Count, n)
				}
			})
		}
	}
}
