package shard

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// MergeInfo summarizes a successful merge for display and downstream
// verification.
type MergeInfo struct {
	// SpecHash/SpecName/Seed are the (validated-identical) values from
	// the shard manifests.
	SpecHash string
	SpecName string
	Seed     uint64
	// Records is the number of lines written; Shards the number of
	// inputs.
	Records int
	Shards  int
	// NoTiming reports whether the shards ran with wall-time fields
	// stripped.
	NoTiming bool
}

// Merge interleaves shard records files back into global grid order,
// writing each line verbatim (no re-encoding, so the output is
// byte-identical to a solo run over the same grid). The inputs are
// manifest paths — each manifest names its records file — and the set
// must be exactly one complete sweep: same spec hash, same shard count,
// every shard present once and finalized with its full plan. Any gap,
// overlap, or cross-sweep mixture is an error naming the offender, and
// is reported before anything is written, because a silently partial
// merge would masquerade as a smaller run.
//
// Memory is O(shards): one buffered reader per shard. Line i of shard
// s's file is cell s + i·Of, so cell g is the next line of shard g mod
// Of and the interleave is a sequential walk of every input.
func Merge(w io.Writer, manifestPaths []string) (MergeInfo, error) {
	if len(manifestPaths) == 0 {
		return MergeInfo{}, fmt.Errorf("shard: merge of zero manifests")
	}
	manifests := make([]Manifest, len(manifestPaths))
	for i, p := range manifestPaths {
		m, err := ReadManifest(p)
		if err != nil {
			return MergeInfo{}, err
		}
		manifests[i] = m
	}
	ref := manifests[0]
	if len(manifestPaths) != ref.Of {
		return MergeInfo{}, fmt.Errorf("shard: %d manifests given for a %d-shard sweep",
			len(manifestPaths), ref.Of)
	}
	// byShard[i] is the input holding shard i. Every shard present once,
	// each with its full plan, is exact cover of the grid.
	byShard := make([]int, ref.Of)
	for i := range byShard {
		byShard[i] = -1
	}
	for i, m := range manifests {
		if m.SpecHash != ref.SpecHash {
			return MergeInfo{}, fmt.Errorf("shard: %s belongs to a different sweep than %s (spec hash mismatch)",
				manifestPaths[i], manifestPaths[0])
		}
		if m.Of != ref.Of || m.TotalCells != ref.TotalCells {
			return MergeInfo{}, fmt.Errorf("shard: %s is shard %d/%d over %d cells, %s is %d/%d over %d",
				manifestPaths[i], m.Shard, m.Of, m.TotalCells,
				manifestPaths[0], ref.Shard, ref.Of, ref.TotalCells)
		}
		if m.NoTiming != ref.NoTiming {
			return MergeInfo{}, fmt.Errorf("shard: %s has no_timing=%v, %s has %v",
				manifestPaths[i], m.NoTiming, manifestPaths[0], ref.NoTiming)
		}
		if byShard[m.Shard] != -1 {
			return MergeInfo{}, fmt.Errorf("shard: shard %d appears twice (%s and %s)",
				m.Shard, manifestPaths[byShard[m.Shard]], manifestPaths[i])
		}
		if m.Completed != m.PlanLen() {
			return MergeInfo{}, fmt.Errorf("shard: %s is incomplete — %d of its %d cells (resume it from its checkpoint before merging)",
				manifestPaths[i], m.Completed, m.PlanLen())
		}
		byShard[m.Shard] = i
	}

	readers := make([]*bufio.Reader, len(manifests))
	for i, m := range manifests {
		f, err := os.Open(m.RecordsPath(manifestPaths[i]))
		if err != nil {
			return MergeInfo{}, err
		}
		defer f.Close()
		readers[i] = bufio.NewReaderSize(f, 64*1024)
	}
	bw := bufio.NewWriter(w)
	for g := 0; g < ref.TotalCells; g++ {
		src := byShard[g%ref.Of]
		line, err := readers[src].ReadBytes('\n')
		if err != nil {
			return MergeInfo{}, fmt.Errorf("shard: cell %d missing from %s (line %d): %w",
				g, manifests[src].Records, g/ref.Of+1, err)
		}
		if _, err := bw.Write(line); err != nil {
			return MergeInfo{}, err
		}
	}
	// Trailing content beyond the manifest's claim means the file and
	// manifest disagree — refuse rather than silently drop lines.
	for i, r := range readers {
		if _, err := r.ReadByte(); err != io.EOF {
			return MergeInfo{}, fmt.Errorf("shard: %s has lines beyond its manifest's %d cells",
				manifests[i].Records, manifests[i].Completed)
		}
	}
	if err := bw.Flush(); err != nil {
		return MergeInfo{}, err
	}
	return MergeInfo{
		SpecHash: ref.SpecHash,
		SpecName: ref.SpecName,
		Seed:     ref.Seed,
		Records:  ref.TotalCells,
		Shards:   ref.Of,
		NoTiming: ref.NoTiming,
	}, nil
}
