// Package shard partitions a sweep's trial grid across independent
// shards — processes or machines — and merges their outputs back into
// the byte-identical single-process result.
//
// The contract rests on one fact: a trial's bytes are a pure function of
// its grid cell. Trial identity is the global cell index g over the
// task-major grid (g = task·Trials + trial), seeds derive from the grid
// position via sweep.Build/runner.SeedFor, and sim kernels are
// deterministic for a seed — so WHERE a cell runs cannot change its
// record. Plan assigns cells to shards round-robin (cell g → shard
// g mod m), each shard streams its records in ascending cell order — so
// line i of its file is its i-th planned cell — under a manifest header
// that counts the lines, and Merge interleaves the shard files back into
// global cell order by verbatim line copy: for every m, the
// concatenation is byte-identical to the m = 1 run (modulo the wall-time
// record fields, which cmd/sweep's -no-timing strips when byte
// comparisons are the point).
//
// The records file is the checkpoint. A killed shard resumes by counting
// the file's complete lines, truncating a torn trailing line, and
// running only the cells after them; the manifest's count, finalized at
// Close after the file is synced, is a lower bound the file must meet.
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/sweep"
)

// Cell is one trial of the global grid: Task and Trial index into
// sweep.Build's tasks and a task's Jobs; Global is the flat task-major
// index, the unit of shard assignment and merge ordering.
type Cell struct {
	Task, Trial, Global int
}

// Shard is one partition of the trial grid: the ascending list of cells
// shard Index of Of executes.
type Shard struct {
	Index, Of int
	// Total is the size of the whole trial grid (all shards together).
	Total int
	Cells []Cell
}

// Plan splits the spec's task×trial grid into m location-independent
// shards. Assignment is round-robin on the global cell index — cell g
// runs on shard g mod m — so shards are balanced to within one cell and
// every shard's cell list is ascending, which the merge relies on. The
// plan depends only on the spec and m, never on where shards run.
func Plan(spec sweep.Spec, m int) ([]Shard, error) {
	if m < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", m)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	total := spec.CellCount() * spec.Trials
	shards := make([]Shard, m)
	for i := range shards {
		shards[i] = Shard{Index: i, Of: m, Total: total}
	}
	for g := 0; g < total; g++ {
		s := g % m
		shards[s].Cells = append(shards[s].Cells, Cell{
			Task:   g / spec.Trials,
			Trial:  g % spec.Trials,
			Global: g,
		})
	}
	return shards, nil
}

// PlanOne returns shard i of m of the spec's grid.
func PlanOne(spec sweep.Spec, i, m int) (Shard, error) {
	if i < 0 || i >= m {
		return Shard{}, fmt.Errorf("shard: index %d outside 0..%d", i, m-1)
	}
	shards, err := Plan(spec, m)
	if err != nil {
		return Shard{}, err
	}
	return shards[i], nil
}

// SpecHash returns the hex SHA-256 of the spec's canonical JSON
// encoding. Two processes agree on the hash exactly when they would
// build the same grid with the same seeds, so manifests carry it to
// refuse resuming or merging across different sweeps.
func SpecHash(spec sweep.Spec) string {
	// encoding/json writes struct fields in declaration order with no
	// host-dependent content, so the encoding is canonical.
	data, err := json.Marshal(spec)
	if err != nil {
		// Spec holds only plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("shard: encoding spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Execute runs the shard's cells through the pool and delivers each
// cell's record via emit — on a single goroutine, in ascending cell
// order, as soon as the cell and all its shard predecessors finish.
// Trials keep the exact seeds and options sweep.Build assigned them, so
// every emitted record is byte-identical (wall-time fields aside) to the
// same cell's record in a solo run. Cells must be a subset of the
// shard's plan in ascending order — resume passes a suffix.
func Execute(tasks []sweep.Task, cells []Cell, pool runner.Pool, emit func(Cell, results.Record)) error {
	jobs := make([]runner.Job, len(cells))
	for i, c := range cells {
		if c.Task < 0 || c.Task >= len(tasks) {
			return fmt.Errorf("shard: cell %d names task %d of %d", c.Global, c.Task, len(tasks))
		}
		if c.Trial < 0 || c.Trial >= len(tasks[c.Task].Jobs) {
			return fmt.Errorf("shard: cell %d names trial %d of %d", c.Global, c.Trial, len(tasks[c.Task].Jobs))
		}
		jobs[i] = tasks[c.Task].Jobs[c.Trial]
	}
	pool.Stream(jobs, func(i int, o runner.Outcome) {
		emit(cells[i], sweep.TrialRecord(tasks[cells[i].Task], cells[i].Trial, o))
	})
	return nil
}
