package main

import (
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
