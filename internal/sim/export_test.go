package sim

import (
	"math"
	"testing"
)

// ForcePrefetch turns the samplers' lookahead on (or off) for every
// plan the calling test or benchmark compiles, whatever its graph's
// size, and restores the gate when it ends. Callers must not run in
// parallel with other tests of this package.
func ForcePrefetch(tb testing.TB, on bool) {
	old := prefetchMinBytes
	prefetchMinBytes = math.MaxInt
	if on {
		prefetchMinBytes = 0
	}
	tb.Cleanup(func() { prefetchMinBytes = old })
}

// MaxSteps returns the resolved step cap (Options.MaxSteps, or
// DefaultMaxSteps of the graph when that was zero).
func (pl *ExecPlan) MaxSteps() int64 { return pl.maxSteps }
