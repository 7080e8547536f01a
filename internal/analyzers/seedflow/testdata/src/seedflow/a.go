// Package seedflow exercises the seedflow analyzer against the real
// xrand and runner packages.
package seedflow

import (
	"popgraph/internal/runner"
	"popgraph/internal/xrand"
)

// hardWired shares one stream between every caller: flagged.
func hardWired() *xrand.Rand {
	return xrand.New(42) // want `seedflow: xrand\.New with constant seed 42`
}

// adHocTrialSeeds reinvents seed derivation with loop arithmetic:
// flagged on both shapes.
func adHocTrialSeeds(base uint64, trials int) []uint64 {
	out := make([]uint64, 0, trials)
	for trial := 0; trial < trials; trial++ {
		rng := xrand.New(base + uint64(trial)*977) // want `seedflow: xrand\.New seed mixes loop variable trial`
		out = append(out, rng.Uint64())
	}
	for i, b := range out {
		rng := xrand.New(b ^ uint64(i)) // want `seedflow: xrand\.New seed mixes loop variable b`
		out[i] = rng.Uint64()
	}
	return out
}

// sanctioned shows every accepted shape: helper-derived seeds, plain
// variables, and loop-free arithmetic on non-constant inputs.
func sanctioned(base uint64, trials int) []uint64 {
	out := make([]uint64, 0, trials)
	for trial := 0; trial < trials; trial++ {
		rng := xrand.New(runner.SeedFor(base, trial))
		out = append(out, rng.Uint64())
	}
	seed := runner.SeedFor(base, trials)
	rng := xrand.New(seed)
	rng2 := xrand.New(base ^ 0x9e3779b97f4a7c15)
	return append(out, rng.Uint64(), rng2.Uint64())
}

// shardCell mirrors shard.Cell for the shard-seam cases without
// importing the real package.
type shardCell struct{ Task, Trial int }

// offByShard re-derives global trial numbers from shard-local indices:
// the arithmetic every shard computes differently from the grid position
// it actually owns. Flagged on both the interleave and the block shape.
func offByShard(base uint64, shardIdx, m, n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		s := runner.SeedFor(base, i*m+shardIdx) // want `seedflow: runner\.SeedFor trial argument mixes loop variable i`
		out = append(out, s)
	}
	for i := 0; i < n; i++ {
		s := runner.SeedFor(base, shardIdx*n+i) // want `seedflow: runner\.SeedFor trial argument mixes loop variable i`
		out = append(out, s)
	}
	return out
}

// batchUnits derives seeds as a unit base plus a lane number. Even the
// flat addition off+l re-derives a grid position from shard-local
// arithmetic, so every operand order and shape is flagged: units must
// map their lanes through the planned cell, as plannedCells does.
func batchUnits(base uint64, off, width int) []uint64 {
	out := make([]uint64, 0, width)
	for l := 0; l < width; l++ {
		out = append(out, runner.SeedFor(base, off+l)) // want `seedflow: runner\.SeedFor trial argument mixes loop variable l`
	}
	for l := 0; l < width; l++ {
		out = append(out, runner.SeedFor(base, l+off)) // want `seedflow: runner\.SeedFor trial argument mixes loop variable l`
	}
	for l := 0; l < width; l++ {
		out = append(out, runner.SeedFor(base, off+l*2)) // want `seedflow: runner\.SeedFor trial argument mixes loop variable l`
	}
	for l := 0; l < width; l++ {
		out = append(out, runner.SeedFor(base, off+l+1)) // want `seedflow: runner\.SeedFor trial argument mixes loop variable l`
	}
	return out
}

// plannedCells maps shard-local indices through the planned global
// (task, trial) cell before seed derivation: sanctioned, as is passing
// the loop variable itself straight through.
func plannedCells(base uint64, cells []shardCell) []uint64 {
	out := make([]uint64, 0, len(cells))
	for i := range cells {
		out = append(out, runner.SeedFor(base, cells[i].Trial))
	}
	for trial := 0; trial < len(cells); trial++ {
		out = append(out, runner.SeedFor(base, trial))
	}
	return out
}

// suppressed documents a deliberate fixed stream.
func suppressed() *xrand.Rand {
	return xrand.New(7) //popcheck:ignore seedflow probe RNG, output unused
}
