package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestSchema identifies the checkpoint manifest layout; bump on
// breaking changes. Readers reject unknown schemas instead of guessing.
const ManifestSchema = "popgraph-shard/v2"

// Manifest is a shard's checkpoint header and merge credential: which
// sweep (by spec hash) it belongs to, which shard of how many it is,
// which records file holds its lines, and how many of them are durable.
// Line i of the records file always holds the shard's i-th planned cell,
// so a count says everything a cell list would. The writer finalizes the
// count when it closes, after syncing the records file.
type Manifest struct {
	Schema   string `json:"schema"`
	SpecHash string `json:"spec_hash"`
	// SpecName and Seed reproduce the solo run's summary-table title at
	// merge time.
	SpecName string `json:"spec_name,omitempty"`
	Seed     uint64 `json:"seed"`
	Shard    int    `json:"shard"`
	Of       int    `json:"of"`
	// TotalCells is the whole grid's trial count (all shards together),
	// letting the merge verify cover without rebuilding the plan.
	TotalCells int `json:"total_cells"`
	// Records is the shard's JSONL file, relative to the manifest's
	// directory (the pair travels together as one artifact).
	Records string `json:"records"`
	// NoTiming records whether the wall-time record fields were
	// stripped; resuming or merging with a mismatched setting would
	// silently break byte-identity, so it is validated instead.
	NoTiming bool `json:"no_timing,omitempty"`
	// Completed is the number of leading lines of Records that were
	// synced to disk when the writer last closed: the shard's first
	// Completed planned cells. The file may hold more complete lines
	// than this (a killed writer never closed); resume keeps them.
	Completed int `json:"completed"`
}

// PlanLen is the number of cells in the shard's plan: the cells g of the
// grid with g mod Of == Shard.
func (m Manifest) PlanLen() int {
	n := m.TotalCells / m.Of
	if m.Shard < m.TotalCells%m.Of {
		n++
	}
	return n
}

// Validate checks the manifest's internal consistency.
func (m Manifest) Validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("shard: unknown manifest schema %q (want %q)", m.Schema, ManifestSchema)
	}
	if m.Of < 1 || m.Shard < 0 || m.Shard >= m.Of {
		return fmt.Errorf("shard: manifest names shard %d of %d", m.Shard, m.Of)
	}
	if m.TotalCells < 0 || m.Completed < 0 || m.Completed > m.PlanLen() {
		return fmt.Errorf("shard: manifest claims %d completed cells of shard %d/%d over a %d-cell grid",
			m.Completed, m.Shard, m.Of, m.TotalCells)
	}
	if m.Records == "" {
		return fmt.Errorf("shard: manifest lacks a records path")
	}
	return nil
}

// RecordsPath resolves the records file relative to the manifest's
// location.
func (m Manifest) RecordsPath(manifestPath string) string {
	if filepath.IsAbs(m.Records) {
		return m.Records
	}
	return filepath.Join(filepath.Dir(manifestPath), m.Records)
}

// WriteManifest writes the manifest atomically: a temp file in the
// destination directory, synced, then renamed over path. A kill during
// the write leaves the previous manifest intact, so a checkpoint is
// always a complete, parseable JSON document.
func WriteManifest(path string, m Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding manifest: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// ReadManifest parses and validates a manifest file.
func ReadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("shard: parsing manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, fmt.Errorf("shard: manifest %s: %w", path, err)
	}
	return m, nil
}
