package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"popgraph/internal/runner"
	"popgraph/internal/sweep"
)

// cell is the one-cell spec popsim's flags make.
func cell(graph, sched, proto string, drop float64, trials int, seed uint64, maxSteps int64) sweep.Spec {
	return sweep.Spec{
		Graphs:     []string{graph},
		Schedulers: []string{sched},
		Protocols:  []string{proto},
		DropRates:  []float64{drop},
		Trials:     trials,
		Seed:       seed,
		MaxSteps:   maxSteps,
	}
}

// refuse runs spec and returns its error, failing the test if anything
// was printed first: a refusal comes before the graph is reported or
// any trial runs.
func refuse(t *testing.T, spec sweep.Spec) error {
	t.Helper()
	var out bytes.Buffer
	err := run(spec, options{workers: 1}, &out)
	if out.Len() > 0 {
		t.Errorf("refused spec printed %q first", out.String())
	}
	return err
}

// TestRunRefusesNegativeMaxSteps — a negative -max-steps is an error
// naming the value, not a silent "automatic" cap.
func TestRunRefusesNegativeMaxSteps(t *testing.T) {
	err := refuse(t, cell("clique:4", "uniform", "six-state", 0, 1, 1, -5))
	if want := "negative max_steps (got -5)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want an error containing %q", err, want)
	}
}

// TestRunRefusesBadTrialCounts — fewer than one trial is an error before
// any work, not a silent single trial (0) or a panic (negative), and so
// is a count over 2³¹−1, not a makeslice panic or a huge allocation.
// The huge counts go with an invalid graph spec, so a missing check
// fails on the graph error instead of running them.
func TestRunRefusesBadTrialCounts(t *testing.T) {
	for _, trials := range []int{0, -1} {
		err := refuse(t, cell("clique:4", "uniform", "six-state", 0, trials, 1, 0))
		want := fmt.Sprintf("trials must be >= 1 (got %d)", trials)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("trials %d: got %v, want an error containing %q", trials, err, want)
		}
	}
	for _, trials := range []int{math.MaxInt32 + 1, 1 << 62} {
		err := refuse(t, cell("cycle:2", "uniform", "six-state", 0, trials, 1, 0))
		want := fmt.Sprintf("%d trials, over the limit of %d", trials, math.MaxInt32)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("trials %d: got %v, want an error containing %q", trials, err, want)
		}
	}
}

// TestRunRefusesBadDropRates — a drop rate outside [0, 1), NaN
// included, is an error before any work, not a crash in every trial.
func TestRunRefusesBadDropRates(t *testing.T) {
	for _, q := range []float64{-0.1, 1, math.NaN(), math.Inf(1)} {
		err := refuse(t, cell("clique:4", "uniform", "six-state", q, 5, 1, 0))
		want := fmt.Sprintf("drop rate %v outside [0, 1)", q)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("drop %v: got %v, want an error containing %q", q, err, want)
		}
	}
}

// TestRunMatchesSweep — popsim is a one-cell sweep: every -v run line
// carries the steps, stabilized flag and leader of the record
// sweep.Execute produces for the same spec, in trial order.
func TestRunMatchesSweep(t *testing.T) {
	for _, spec := range []sweep.Spec{
		cell("torus:6x6", "uniform", "six-state", 0, 4, 11, 0),
		cell("cycle:16", "uniform", "fast", 0, 4, 5, 0),
		cell("cycle:16", "uniform", "six-state", 0, 3, 5, 0),
		cell("torus:5x5", "weighted:exp", "six-state", 0.1, 4, 7, 0),
	} {
		name := spec.Graphs[0] + "/" + spec.Schedulers[0] + "/" + spec.Protocols[0]
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(spec, options{workers: 2, verbose: true}, &out); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "  run ") {
					got = append(got, strings.Join(strings.Fields(line), " "))
				}
			}
			tasks, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			recs := sweep.Execute(tasks, runner.Pool{Workers: 1})
			if len(got) != len(recs) {
				t.Fatalf("popsim printed %d runs, sweep has %d records:\n%s", len(got), len(recs), out.String())
			}
			for i, rec := range recs {
				want := fmt.Sprintf("run %d: steps=%d stabilized=%v leader=%d", rec.Trial, rec.Steps, rec.Stabilized, rec.Leader)
				if got[i] != want {
					t.Errorf("trial %d: popsim %q, sweep %q", i, got[i], want)
				}
			}
		})
	}
}
