// Package suite fixes the analyzer set that cmd/popcheck runs and that
// CI enforces. Keeping the list here — not in main — lets the selfcheck
// test assert the exact shipping configuration against the whole module.
package suite

import (
	"popgraph/internal/analyzers"
	"popgraph/internal/analyzers/deadexport"
	"popgraph/internal/analyzers/detrand"
	"popgraph/internal/analyzers/hotpath"
	"popgraph/internal/analyzers/lockcallback"
	"popgraph/internal/analyzers/mapiter"
	"popgraph/internal/analyzers/seedflow"
)

// Analyzers returns the full popcheck suite in stable (name-sorted)
// order.
func Analyzers() []*analyzers.Analyzer {
	return []*analyzers.Analyzer{
		deadexport.Analyzer,
		detrand.Analyzer,
		hotpath.Analyzer,
		lockcallback.Analyzer,
		mapiter.Analyzer,
		seedflow.Analyzer,
	}
}
