package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFileName is the benchmark's definition at the repository
// root: how to run it, its workloads, and its metrics with their units,
// better direction and, for end-to-end metrics, regression bounds.
const benchmarkFileName = "BENCHMARK.json"

type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []e2eEntry      `json:"end_to_end"`
	PerLayer   []layerEntry    `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkDefinition renders the benchmark's definition from the
// workload and metric tables, with the given end-to-end bounds.
func benchmarkDefinition(bounds map[string]float64) benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "cmd/e2ebench/run.sh"},
		Paths:      []string{"cmd/e2ebench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadEntry{w.name, w.why})
	}
	for _, m := range e2eMetrics {
		f.EndToEnd = append(f.EndToEnd, e2eEntry{m.name, m.unit, m.better, bounds[m.name]})
	}
	for _, m := range layerMetrics {
		f.PerLayer = append(f.PerLayer, layerEntry{m.name, m.unit, m.better})
	}
	return f
}

// readBounds returns the end-to-end bounds recorded in BENCHMARK.json.
func readBounds(root string) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(root, benchmarkFileName))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", benchmarkFileName, err)
	}
	bounds := make(map[string]float64)
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
