// Command preprocess builds a graph once and writes it as a binary
// popgraph-snap/v3 snapshot (see internal/snapshot), so later runs load
// it with file:PATH.popg instead of regenerating it — the point at
// 10⁶–10⁷ nodes, where generation plus connectivity conditioning
// dominates startup. Every load checks the checksum, the edge list and
// connectivity. A file written in an older format is refused on load;
// rerun preprocess to rebuild it.
//
// Usage:
//
//	preprocess -graph ws:1000000:10:0.1 -seed 1 -out ws1m.popg
//	preprocess -graph ws:4096:8:0.2 -sweep-seed 42 -sweep-index 0 -out cell0.popg
//
// The snapshot holds the graph's edge list only. Schedulers (weighted
// rates included) are built from their specs on the loaded graph, and
// each constant-state protocol builds its transition table once per
// process. A clique: spec builds an implicit graph with no edge list,
// so preprocess refuses it (and file: specs) with an error and writes
// nothing.
//
// -sweep-seed/-sweep-index derive the graph construction seed exactly
// as cmd/sweep does for the i-th expanded graph spec of a grid seeded
// -sweep-seed, so a sweep over file:cell0.popg is byte-identical to the
// same sweep over the generator spec (the preprocess-roundtrip CI gate
// checks this with cmp).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"popgraph"
	"popgraph/internal/graph"
	"popgraph/internal/snapshot"
	"popgraph/internal/sweep"
)

func main() {
	var (
		graphSpec  = flag.String("graph", "", "generator graph spec to build, e.g. ws:1000000:10:0.1 (required)")
		seed       = flag.Uint64("seed", 1, "graph construction seed")
		out        = flag.String("out", "", "output snapshot path, conventionally .popg (required)")
		sweepSeed  = flag.Uint64("sweep-seed", 0, "derive the construction seed as a sweep with this -seed would")
		sweepIndex = flag.Int("sweep-index", 0, "expanded graph-spec index within that sweep (with -sweep-seed)")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()
	if err := run(*graphSpec, *seed, *out, *sweepSeed, *sweepIndex, *quiet,
		flagWasSet("sweep-seed")); err != nil {
		fmt.Fprintln(os.Stderr, "preprocess:", err)
		os.Exit(1)
	}
}

// flagWasSet reports whether the named flag appeared on the command
// line, distinguishing -sweep-seed 0 from an absent -sweep-seed.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func run(graphSpec string, seed uint64, out string,
	sweepSeed uint64, sweepIndex int, quiet, useSweepSeed bool) error {
	if graphSpec == "" {
		return fmt.Errorf("-graph is required")
	}
	if out == "" {
		return fmt.Errorf("-out is required")
	}
	if strings.HasPrefix(graphSpec, "file:") {
		return fmt.Errorf("-graph %q is already a snapshot spec; pass a generator spec", graphSpec)
	}
	if useSweepSeed {
		if sweepIndex < 0 {
			return fmt.Errorf("-sweep-index must be >= 0")
		}
		seed = sweep.GraphBuildSeed(sweepSeed, sweepIndex)
	}

	buildStart := time.Now()
	g, err := popgraph.ParseGraph(graphSpec, popgraph.NewRand(seed))
	if err != nil {
		return err
	}
	buildNs := time.Since(buildStart)
	d, ok := g.(*graph.Dense)
	if !ok {
		return fmt.Errorf("-graph %q builds an implicit graph (%s) with no edge list to snapshot", graphSpec, g.Name())
	}

	encodeStart := time.Now()
	if err := snapshot.WriteFile(out, &snapshot.Snapshot{Graph: d, Source: graphSpec}); err != nil {
		return err
	}
	encodeNs := time.Since(encodeStart)

	if quiet {
		return nil
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("graph    %s  (n=%d, m=%d, seed=%d)\n", g.Name(), g.N(), g.M(), seed)
	fmt.Printf("build    %v\n", buildNs)
	fmt.Printf("encode   %v -> %s (%d bytes)\n", encodeNs, out, st.Size())
	fmt.Printf("run with -graphs file:%s\n", out)
	return nil
}
