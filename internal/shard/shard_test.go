package shard

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/sweep"
	"popgraph/internal/telemetry"
)

// testSpec is a small grid that exercises every record shape the merge
// must preserve: two protocols (the star protocol crashes on non-star
// graphs, so half its cells produce Outcome.Err records), two
// schedulers, and a drop rate.
func testSpec() sweep.Spec {
	return sweep.Spec{
		Name:       "shard-prop",
		Seed:       2022,
		Trials:     4,
		Graphs:     []string{"clique:N", "star:N"},
		Sizes:      []int{8},
		Schedulers: []string{"uniform", "node-clock"},
		Protocols:  []string{"six-state", "star"},
		DropRates:  []float64{0, 0.25},
	}
}

func TestPlanRoundRobin(t *testing.T) {
	spec := testSpec()
	total := spec.CellCount() * spec.Trials
	if total != 2*2*2*2*4 {
		t.Fatalf("grid size %d", total)
	}
	for _, m := range []int{1, 3, 7} {
		shards, err := Plan(spec, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != m {
			t.Fatalf("m=%d: %d shards", m, len(shards))
		}
		seen := make(map[int]bool)
		for i, sh := range shards {
			if sh.Index != i || sh.Of != m || sh.Total != total {
				t.Fatalf("m=%d: shard header %+v", m, sh)
			}
			// Balanced to within one cell.
			if len(sh.Cells) < total/m || len(sh.Cells) > total/m+1 {
				t.Fatalf("m=%d: shard %d has %d cells of %d", m, i, len(sh.Cells), total)
			}
			prev := -1
			for _, c := range sh.Cells {
				if c.Global%m != i {
					t.Fatalf("m=%d: cell %d on shard %d", m, c.Global, i)
				}
				if c.Global <= prev {
					t.Fatalf("m=%d: shard %d cells not ascending", m, i)
				}
				prev = c.Global
				if c.Global != c.Task*spec.Trials+c.Trial {
					t.Fatalf("cell %+v inconsistent", c)
				}
				if seen[c.Global] {
					t.Fatalf("cell %d assigned twice", c.Global)
				}
				seen[c.Global] = true
			}
		}
		if len(seen) != total {
			t.Fatalf("m=%d: %d of %d cells assigned", m, len(seen), total)
		}
	}
	if _, err := Plan(spec, 0); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := PlanOne(spec, 4, 4); err == nil {
		t.Fatal("shard index == m accepted")
	}
}

// TestSpecHashPinned pins the hash of a fixed spec to the value computed
// before the spec's "batch" field was removed. That field was omitempty
// and zeroed before hashing, so its removal must leave every hash — and
// with it every manifest written earlier — resumable and mergeable.
func TestSpecHashPinned(t *testing.T) {
	const want = "432172f0039fb86015d0c8ed323bbfde7d75a9783510e9195e2d3183a0ea3814"
	if got := SpecHash(testSpec()); got != want {
		t.Fatalf("SpecHash(testSpec()) = %s, want %s", got, want)
	}
}

func TestSpecHashDistinguishesSpecs(t *testing.T) {
	a := testSpec()
	b := testSpec()
	if SpecHash(a) != SpecHash(b) {
		t.Fatal("identical specs hash differently")
	}
	b.Seed++
	if SpecHash(a) == SpecHash(b) {
		t.Fatal("different seeds hash identically")
	}
	c := testSpec()
	c.Trials++
	if SpecHash(a) == SpecHash(c) {
		t.Fatal("different grids hash identically")
	}
}

// soloBytes runs the whole grid in-process and renders the canonical
// JSONL log with wall-time fields stripped — the byte-identity
// reference every merge is compared against.
func soloBytes(t *testing.T, spec sweep.Spec, meter *telemetry.Counters) []byte {
	t.Helper()
	tasks, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	recs := sweep.Execute(tasks, runner.Pool{Workers: 3, Meter: meter})
	for i := range recs {
		recs[i].ElapsedNs, recs[i].QueueWaitNs = 0, 0
	}
	var buf bytes.Buffer
	if err := results.Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runShard executes one shard into dir with checkpointing, starting
// from whatever its manifest says is already done, over at most
// stopAfter additional cells (<= 0 means all). It returns the manifest
// path.
func runShard(t *testing.T, dir string, spec sweep.Spec, sh Shard, stopAfter int, meter *telemetry.Counters) string {
	t.Helper()
	tasks, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", sh.Index))
	manifestPath := filepath.Join(dir, fmt.Sprintf("shard-%d.manifest.json", sh.Index))
	w, done, err := Open(outPath, manifestPath, Manifest{
		Schema:     ManifestSchema,
		SpecHash:   SpecHash(spec),
		SpecName:   spec.Name,
		Seed:       spec.Seed,
		Shard:      sh.Index,
		Of:         sh.Of,
		TotalCells: sh.Total,
		Records:    filepath.Base(outPath),
		NoTiming:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := sh.Cells[done:]
	if stopAfter > 0 && stopAfter < len(cells) {
		cells = cells[:stopAfter]
	}
	var appendErr error
	err = Execute(tasks, cells, runner.Pool{Workers: 2, Meter: meter}, func(c Cell, rec results.Record) {
		if appendErr == nil {
			appendErr = w.Append(c.Global, rec)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return manifestPath
}

// TestMergeByteIdenticalAcrossShardCounts is the subsystem's core
// guarantee: for every shard count m, running the grid as m independent
// checkpointed shards and merging the files reproduces the solo run's
// JSONL byte for byte — crashed trials and telemetry included — and the
// per-shard telemetry snapshots merge to the solo snapshot's
// deterministic fields.
func TestMergeByteIdenticalAcrossShardCounts(t *testing.T) {
	spec := testSpec()
	soloMeter := new(telemetry.Counters)
	want := soloBytes(t, spec, soloMeter)
	soloSnap := soloMeter.Snapshot()
	if !bytes.Contains(want, []byte(`"error"`)) {
		t.Fatal("test grid produced no crashed trials; the property would not cover them")
	}
	for _, m := range []int{1, 2, 3, 7} {
		dir := t.TempDir()
		shards, err := Plan(spec, m)
		if err != nil {
			t.Fatal(err)
		}
		var manifests []string
		merged := telemetry.Snapshot{}
		for _, sh := range shards {
			meter := new(telemetry.Counters)
			manifests = append(manifests, runShard(t, dir, spec, sh, 0, meter))
			merged = merged.Merge(meter.Snapshot())
		}
		var buf bytes.Buffer
		info, err := Merge(&buf, manifests)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("m=%d: merged output differs from the solo run", m)
		}
		if info.Records != bytes.Count(want, []byte("\n")) {
			t.Fatalf("m=%d: merge info reports %d records, log has %d lines",
				m, info.Records, bytes.Count(want, []byte("\n")))
		}
		if info.SpecHash != SpecHash(spec) || info.Shards != m || !info.NoTiming {
			t.Fatalf("m=%d: merge info %+v", m, info)
		}
		// Telemetry shards fold to the solo flight recorder's
		// deterministic fields (wall-time histograms are host noise).
		if merged.StepsExecuted != soloSnap.StepsExecuted ||
			merged.ChunksRun != soloSnap.ChunksRun ||
			merged.RNGRefills != soloSnap.RNGRefills ||
			merged.DropsApplied != soloSnap.DropsApplied ||
			merged.TrialsRun != soloSnap.TrialsRun ||
			merged.TrialsStabilized != soloSnap.TrialsStabilized ||
			merged.TrialsFailed != soloSnap.TrialsFailed {
			t.Fatalf("m=%d: merged telemetry %+v != solo %+v", m, merged, soloSnap)
		}
		for k, v := range soloSnap.KernelDispatch {
			if merged.KernelDispatch[k] != v {
				t.Fatalf("m=%d: kernel %s dispatched %d times, solo %d", m, k, merged.KernelDispatch[k], v)
			}
		}
	}
}

// TestResumeFromCheckpoint — a shard killed mid-sweep (including with a
// torn trailing line) resumes from its manifest, recomputes nothing
// that was checkpointed, and finishes with a file byte-identical to an
// uninterrupted run.
func TestResumeFromCheckpoint(t *testing.T) {
	spec := testSpec()
	shards, err := Plan(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[1]

	fullDir := t.TempDir()
	runShard(t, fullDir, spec, sh, 0, nil)
	want, err := os.ReadFile(filepath.Join(fullDir, "shard-1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	// Kill after 3 cells, then once more after 2, then run to completion:
	// two resumes, three manifest generations.
	dir := t.TempDir()
	runShard(t, dir, spec, sh, 3, nil)
	m1, err := ReadManifest(filepath.Join(dir, "shard-1.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Completed) != 3 {
		t.Fatalf("first leg checkpointed %d cells, want 3", len(m1.Completed))
	}
	// Simulate the torn line a mid-write kill leaves behind.
	f, err := os.OpenFile(filepath.Join(dir, "shard-1.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"graph":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	runShard(t, dir, spec, sh, 2, nil)
	manifestPath := runShard(t, dir, spec, sh, 0, nil)
	got, err := os.ReadFile(filepath.Join(dir, "shard-1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed shard file differs from the uninterrupted run")
	}
	final, err := ReadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Completed) != len(sh.Cells) {
		t.Fatalf("final manifest has %d cells, want %d", len(final.Completed), len(sh.Cells))
	}

	// A checkpoint from a different sweep must be refused, not resumed.
	other := spec
	other.Seed++
	_, _, err = Open(filepath.Join(dir, "shard-1.jsonl"), manifestPath, Manifest{
		Schema:     ManifestSchema,
		SpecHash:   SpecHash(other),
		Seed:       other.Seed,
		Shard:      sh.Index,
		Of:         sh.Of,
		TotalCells: sh.Total,
		Records:    "shard-1.jsonl",
		NoTiming:   true,
	})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("cross-sweep resume: %v", err)
	}
}

// TestResumeAcrossUnitShapesMatchesSolo — the runner sizes its dispatch
// units from the job count, so each leg of a killed and resumed shard
// runs its cells in differently shaped units (4, 2, then 1 trial per
// unit here) than the uninterrupted solo reference (5). The merge must
// still be byte-identical: record bytes cannot depend on unit shape.
func TestResumeAcrossUnitShapesMatchesSolo(t *testing.T) {
	spec := testSpec()
	spec.Trials = 64 // 1024 cells, 512 per shard: units of 4 at two workers
	want := soloBytes(t, spec, nil)

	shards, err := Plan(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var manifests []string
	for _, sh := range shards {
		runShard(t, dir, spec, sh, 301, nil)
		runShard(t, dir, spec, sh, 150, nil)
		manifests = append(manifests, runShard(t, dir, spec, sh, 0, nil))
	}
	var buf bytes.Buffer
	if _, err := Merge(&buf, manifests); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("kill/resume merge differs from the solo reference")
	}
}

// TestMergeRejectsIncompleteOrMixedShards — merging refuses partial
// sweeps (a killed shard that never resumed), missing shards, and
// manifests from different sweeps.
func TestMergeRejectsIncompleteOrMixedShards(t *testing.T) {
	spec := testSpec()
	shards, err := Plan(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m0 := runShard(t, dir, spec, shards[0], 0, nil)
	m1 := runShard(t, dir, spec, shards[1], 2, nil) // incomplete

	var buf bytes.Buffer
	if _, err := Merge(&buf, []string{m0}); err == nil || !strings.Contains(err.Error(), "manifests") {
		t.Fatalf("missing shard: %v", err)
	}
	if _, err := Merge(&buf, []string{m0, m1}); err == nil || !strings.Contains(err.Error(), "cover") {
		t.Fatalf("incomplete shard: %v", err)
	}
	if _, err := Merge(&buf, []string{m0, m0}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate shard: %v", err)
	}

	// Different sweep in the mix.
	other := spec
	other.Seed++
	otherShards, err := Plan(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	otherDir := t.TempDir()
	om1 := runShard(t, otherDir, other, otherShards[1], 0, nil)
	if _, err := Merge(&buf, []string{m0, om1}); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("mixed sweeps: %v", err)
	}
}
