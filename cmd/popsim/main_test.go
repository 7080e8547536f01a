package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestRunRefusesNegativeMaxSteps — a negative -max-steps is an error
// naming the value, not a silent "automatic" cap.
func TestRunRefusesNegativeMaxSteps(t *testing.T) {
	err := run("clique:4", "uniform", "six-state", 1, 1, -5, 0, 1, false, false, "", "")
	if err == nil || !strings.Contains(err.Error(), "-5") {
		t.Fatalf("got %v, want an error naming -5", err)
	}
}

// TestRunRefusesBadTrialCounts — fewer than one trial is an error before
// any work, not a silent single trial (0) or a panic (negative), and so
// is a count over 2³¹−1, not a makeslice panic or a huge allocation.
// The huge counts go with an invalid graph spec, so a missing check
// fails on the graph error instead of running them.
func TestRunRefusesBadTrialCounts(t *testing.T) {
	for _, trials := range []int{0, -1} {
		err := run("clique:4", "uniform", "six-state", 1, trials, 0, 0, 1, false, false, "", "")
		want := fmt.Sprintf("trials must be >= 1 (got %d)", trials)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("trials %d: got %v, want an error containing %q", trials, err, want)
		}
	}
	for _, trials := range []int{math.MaxInt32 + 1, 1 << 62} {
		err := run("cycle:2", "uniform", "six-state", 1, trials, 0, 0, 1, false, false, "", "")
		want := fmt.Sprintf("trials %d over the limit of %d", trials, math.MaxInt32)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("trials %d: got %v, want an error containing %q", trials, err, want)
		}
	}
}

// TestRunRefusesBadDropRates — a drop rate outside [0, 1), NaN
// included, is an error before any work, not a crash in every trial.
func TestRunRefusesBadDropRates(t *testing.T) {
	for _, q := range []float64{-0.1, 1, math.NaN(), math.Inf(1)} {
		err := run("clique:4", "uniform", "six-state", 1, 5, 0, q, 1, false, false, "", "")
		want := fmt.Sprintf("drop rate %v outside [0, 1)", q)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("drop %v: got %v, want an error containing %q", q, err, want)
		}
	}
}
