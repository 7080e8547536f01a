// Startup benchmarking: the build-once/load-many economics of binary
// graph snapshots. For each spec the graph is generated once (timed),
// written as a popgraph-snap/v2 container, and then loaded back with
// snapshot.Load, so the report records how many times over a
// preprocessed graph amortizes its generation. These numbers are
// informational, not gated: load time is dominated by I/O, checksum
// bandwidth and the CSR fill from the edge list, which vary across
// machines far more than kernel throughput does.

package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"popgraph"
	"popgraph/internal/snapshot"
)

// StartupMeasurement is the snapshot economics of one graph spec:
// generation time against validated load time from the binary
// container.
type StartupMeasurement struct {
	GraphSpec string `json:"graph_spec"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	// SnapshotBytes is the encoded container size.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// BuildNs is the in-process generation time (ParseGraph, including
	// connectivity conditioning for random families); LoadNs the full
	// validated snapshot.Load (read + checksums + edge-list checks + CSR
	// fill), best of loadReps. LoadSpeedup is BuildNs over LoadNs.
	BuildNs     int64   `json:"build_ns"`
	LoadNs      int64   `json:"load_ns"`
	LoadSpeedup float64 `json:"load_speedup"`
}

// loadReps is how many times the load runs; the minimum survives,
// filtering page-cache warmup and scheduler noise exactly like the
// best-of-trials statistic of the throughput cells.
const loadReps = 3

// DefaultStartup returns the startup specs: the 10⁶-node Watts–Strogatz
// small world (10⁷ CSR entries) whose generation takes seconds where
// the snapshot loads in tens of milliseconds. quick shrinks it 50× for
// smoke runs.
func DefaultStartup(quick bool) []string {
	if quick {
		return []string{"ws:20000:10:0.1"}
	}
	return []string{"ws:1000000:10:0.1"}
}

// RunStartup measures the build-vs-load economics for each spec. The
// snapshot is written to a temporary directory and removed afterwards.
func RunStartup(specs []string, seed uint64, logf func(format string, args ...interface{})) ([]StartupMeasurement, error) {
	dir, err := os.MkdirTemp("", "popgraph-bench-snap")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var out []StartupMeasurement
	for i, spec := range specs {
		m, err := measureStartup(spec, seed, filepath.Join(dir, fmt.Sprintf("s%d.popg", i)))
		if err != nil {
			return nil, fmt.Errorf("bench: startup %s: %w", spec, err)
		}
		out = append(out, m)
		if logf != nil {
			logf("bench: startup %-18s  n=%-8d build %8.1f ms  load %6.2f ms  speedup %.0fx",
				spec, m.N, float64(m.BuildNs)/1e6, float64(m.LoadNs)/1e6, m.LoadSpeedup)
		}
	}
	return out, nil
}

func measureStartup(spec string, seed uint64, path string) (StartupMeasurement, error) {
	r := popgraph.NewRand(seed)
	start := time.Now()
	g, err := popgraph.ParseGraph(spec, r)
	if err != nil {
		return StartupMeasurement{}, err
	}
	buildNs := time.Since(start).Nanoseconds()

	snap, err := snapshot.Build(g, spec)
	if err != nil {
		return StartupMeasurement{}, err
	}
	if err := snapshot.WriteFile(path, snap); err != nil {
		return StartupMeasurement{}, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return StartupMeasurement{}, err
	}

	loadNs := int64(0)
	for rep := 0; rep < loadReps; rep++ {
		start := time.Now()
		s, err := snapshot.Load(path)
		elapsed := time.Since(start).Nanoseconds()
		if err != nil {
			return StartupMeasurement{}, err
		}
		if s.Graph.N() != g.N() || s.Graph.M() != g.M() {
			return StartupMeasurement{}, fmt.Errorf("loaded graph n=%d m=%d, want %d/%d", s.Graph.N(), s.Graph.M(), g.N(), g.M())
		}
		if loadNs == 0 || elapsed < loadNs {
			loadNs = elapsed
		}
	}

	m := StartupMeasurement{
		GraphSpec:     spec,
		N:             g.N(),
		M:             g.M(),
		SnapshotBytes: st.Size(),
		BuildNs:       buildNs,
		LoadNs:        loadNs,
	}
	if loadNs > 0 {
		m.LoadSpeedup = float64(buildNs) / float64(loadNs)
	}
	return m, nil
}
