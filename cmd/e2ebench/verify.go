package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"

	"popgraph/internal/results"
	"popgraph/internal/sweep"
)

// logSummary is what the correctness gate learns from one results log.
type logSummary struct {
	// Digest is the SHA-256 of the normalized log: every record read,
	// its wall-time fields zeroed and re-encoded with results.Write.
	Digest string `json:"digest"`
	// Bytes is the normalized log's length.
	Bytes   int64 `json:"bytes"`
	Records int   `json:"records"`
	Steps   int64 `json:"steps"`
	// Failed counts records carrying an error (crashed trials).
	Failed int `json:"failed"`
}

// logCheck normalizes, fingerprints and checks a sweep's records, which
// must arrive in grid order.
type logCheck struct {
	spec         sweep.Spec
	allStabilize bool
	out          io.Writer
	h            hash.Hash
	batch        []results.Record
	sum          logSummary
	problems     []string
}

// newLogCheck returns a checker for the records of spec. The normalized
// bytes also go to copyTo when it is non-nil.
func newLogCheck(spec sweep.Spec, allStabilize bool, copyTo io.Writer) *logCheck {
	c := &logCheck{spec: spec, allStabilize: allStabilize, h: sha256.New()}
	c.out = c.h
	if copyTo != nil {
		c.out = io.MultiWriter(c.h, copyTo)
	}
	return c
}

// add checks one record and appends its normalized encoding.
func (c *logCheck) add(rec results.Record) error {
	i := c.sum.Records
	c.sum.Records++
	c.sum.Steps += rec.Steps
	if rec.Failed() {
		c.sum.Failed++
		c.problem("record %d (%s × %s): trial crashed: %s", i, rec.Graph, rec.Protocol, rec.Error)
	}
	switch {
	case rec.Trial != i%c.spec.Trials:
		c.problem("record %d is trial %d, grid order wants %d", i, rec.Trial, i%c.spec.Trials)
	case rec.Steps < 1:
		c.problem("record %d ran %d steps", i, rec.Steps)
	case rec.Stabilized && strings.Contains(rec.Protocol, "majority") && rec.Leader != -1:
		// Majority protocols reach consensus, not a leader.
		c.problem("record %d (%s) names leader %d", i, rec.Protocol, rec.Leader)
	case rec.Stabilized && !strings.Contains(rec.Protocol, "majority") && (rec.Leader < 0 || rec.Leader >= rec.N):
		c.problem("record %d stabilized with leader %d on %d nodes", i, rec.Leader, rec.N)
	case !rec.Stabilized && rec.Leader != -1:
		c.problem("record %d did not stabilize but names leader %d", i, rec.Leader)
	case !rec.Stabilized && c.spec.MaxSteps > 0 && rec.Steps != c.spec.MaxSteps:
		c.problem("record %d stopped unstabilized at %d steps, cap is %d", i, rec.Steps, c.spec.MaxSteps)
	case !rec.Stabilized && c.allStabilize && !rec.Failed():
		c.problem("record %d (%s × %s) did not stabilize", i, rec.Graph, rec.Protocol)
	}
	rec.ElapsedNs, rec.QueueWaitNs = 0, 0
	c.batch = append(c.batch, rec)
	if len(c.batch) >= 512 {
		return c.flush()
	}
	return nil
}

func (c *logCheck) problem(format string, args ...any) {
	// The first few problems say what is wrong; the rest would only
	// repeat it.
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// flush encodes the pending records. results.Write buffers per call, so
// records are encoded in batches rather than one call per record.
func (c *logCheck) flush() error {
	cw := &countingWriter{w: c.out}
	err := results.Write(cw, c.batch)
	c.sum.Bytes += cw.n
	c.batch = c.batch[:0]
	return err
}

// finish returns the log's summary and every problem found, including a
// record count that does not match the grid.
func (c *logCheck) finish() (logSummary, error) {
	if err := c.flush(); err != nil {
		return c.sum, err
	}
	c.sum.Digest = hex.EncodeToString(c.h.Sum(nil))
	if want := c.spec.CellCount() * c.spec.Trials; c.sum.Records != want {
		c.problem("log has %d records, the grid has %d trials", c.sum.Records, want)
	}
	if len(c.problems) > 0 {
		return c.sum, fmt.Errorf("%s: %s", c.spec.Name, strings.Join(c.problems, "; "))
	}
	return c.sum, nil
}

// checkLog reads a results log with results.ForEach and checks it.
func checkLog(path string, spec sweep.Spec, allStabilize bool) (logSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return logSummary{}, err
	}
	defer f.Close()
	c := newLogCheck(spec, allStabilize, nil)
	if err := results.ForEach(f, c.add); err != nil {
		return logSummary{}, fmt.Errorf("reading %s: %w", path, err)
	}
	return c.finish()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// defaultSeed is the benchmark seed whose digests are pinned.
const defaultSeed = 2022

// digestsPath is where the pinned default-seed digests live, relative
// to the repository root.
var digestsPath = filepath.Join("cmd", "e2ebench", "testdata", "digests.json")

// pinnedDigests reads the workload → digest map pinned for defaultSeed.
func pinnedDigests(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, digestsPath))
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", digestsPath, err)
	}
	return m, nil
}
