package detrand_test

import (
	"testing"

	"popgraph/internal/analyzers/analyzertest"
	"popgraph/internal/analyzers/detrand"
)

func TestContractPackageFlagged(t *testing.T) {
	analyzertest.Run(t, detrand.Analyzer, "testdata/src/contract",
		"popgraph/internal/sim/detrandcontract")
}

func TestFileAllowDirective(t *testing.T) {
	analyzertest.Run(t, detrand.Analyzer, "testdata/src/allowed",
		"popgraph/internal/core/detrandallowed")
}

func TestOutOfScopePackageClean(t *testing.T) {
	analyzertest.Run(t, detrand.Analyzer, "testdata/src/outofscope",
		"popgraph/internal/telemetry/detrandfree")
}

func TestInScope(t *testing.T) {
	for rel, want := range map[string]bool{
		"internal/sim":                true,
		"internal/sim/sub":            true,
		"internal/protocols/majority": true,
		"internal/sweep":              true,
		"internal/telemetry":          false,
		"internal/results":            true,
		"internal/shard":              true,
		"internal/jsonl":              true,
		"internal/runner":             false,
		"cmd/sweep":                   false,
		"":                            false,
		"internal/simulator":          false, // prefix must respect path boundaries
	} {
		if got := detrand.InScope(rel); got != want {
			t.Errorf("InScope(%q) = %v, want %v", rel, got, want)
		}
	}
}
