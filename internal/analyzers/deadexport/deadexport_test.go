package deadexport_test

import (
	"testing"

	"popgraph/internal/analyzers/analyzertest"
	"popgraph/internal/analyzers/deadexport"
)

func TestDeadExports(t *testing.T) {
	analyzertest.Run(t, deadexport.Analyzer, "testdata/src/deadexport",
		"popgraph/internal/deadexporttest")
}

// TestRootPackage checks the module-root package, loaded under the
// module path itself.
func TestRootPackage(t *testing.T) {
	analyzertest.Run(t, deadexport.Analyzer, "testdata/src/root", "popgraph")
}
