package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"popgraph/internal/sweep"
	"popgraph/internal/telemetry"
)

// minReps is the fewest timed repetitions a measurement makes, however
// small its time budget: the median of fewer says little.
const minReps = 3

// buildSweep compiles cmd/sweep from the checkout at root into dir and
// returns the binary's path. dir must be absolute.
func buildSweep(root, dir string) (string, error) {
	bin := filepath.Join(dir, "sweep")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sweep")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/sweep: %v\n%s", err, stderr.Bytes())
	}
	return bin, nil
}

// leg is one sweep process of a repetition: shard of of the grid,
// stopped after stopAfter cells when that is positive.
type leg struct {
	shard, of, stopAfter int
}

// legsOf returns the sweep processes a repetition of w runs, in order.
// A sharded workload stops shard 0 halfway through (exit code 3, as a
// kill would leave it), resumes it from its manifest, runs shard 1 and
// then merges.
func legsOf(w workload, spec sweep.Spec) []leg {
	if !w.sharded {
		return []leg{{0, 1, 0}}
	}
	shard0 := (spec.CellCount()*spec.Trials + 1) / 2
	return []leg{{0, 2, shard0 / 2}, {0, 2, 0}, {1, 2, 0}}
}

// File names inside a repetition's directory.
const (
	specFile   = "spec.json"
	plainOut   = "out.jsonl"
	mergedOut  = "merged.jsonl"
	traceFile  = "trace.jsonl"
	shardOut   = "s%d.jsonl"
	shardMani  = "s%d.manifest.json"
	journalOut = "journal%d.jsonl"
)

// outputOf is the results log a repetition of w leaves in its directory.
func outputOf(w workload) string {
	if w.sharded {
		return mergedOut
	}
	return plainOut
}

// sweepArgs returns the command line of leg i and the exit code it must
// end with.
func sweepArgs(w workload, l leg, i, workers int) ([]string, int) {
	args := []string{"-spec", specFile, "-workers", strconv.Itoa(workers), "-q",
		"-journal", fmt.Sprintf(journalOut, i)}
	if !w.sharded {
		return append(args, "-out", plainOut), 0
	}
	args = append(args, "-no-timing",
		"-shard", fmt.Sprintf("%d/%d", l.shard, l.of),
		"-checkpoint", fmt.Sprintf(shardMani, l.shard),
		"-out", fmt.Sprintf(shardOut, l.shard))
	if l.stopAfter > 0 {
		return append(args, "-stop-after", strconv.Itoa(l.stopAfter)), 3
	}
	return args, 0
}

// repSample is one timed repetition, as its end-to-end metrics.
type repSample struct {
	wall, setup, run, cpu time.Duration
	log                   logSummary
}

// addTo appends the repetition's measurements to samples, by name.
func (r repSample) addTo(samples map[string][]float64) {
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	add("wall_s", r.wall.Seconds())
	add("setup_s", r.setup.Seconds())
	add("msteps_per_s", float64(r.log.Steps)/1e6/r.run.Seconds())
	add("cpu_s", r.cpu.Seconds())
}

// runRep runs one repetition of w in dir, a directory it empties first:
// the spec file, then each leg as a sweep process, one at a time. It
// checks every exit code and the output log.
func runRep(bin, dir string, w workload, spec sweep.Spec, workers int) (repSample, error) {
	var r repSample
	if err := os.RemoveAll(dir); err != nil {
		return r, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, err
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return r, err
	}
	if err := os.WriteFile(filepath.Join(dir, specFile), data, 0o644); err != nil {
		return r, err
	}
	legs := legsOf(w, spec)
	for i, l := range legs {
		args, wantExit := sweepArgs(w, l, i, workers)
		if err := r.exec(bin, dir, args, wantExit); err != nil {
			return r, err
		}
		spans, err := readJournal(filepath.Join(dir, fmt.Sprintf(journalOut, i)))
		if err != nil {
			return r, err
		}
		for _, s := range spans {
			switch s.Span {
			case "build":
				r.setup += time.Duration(s.DurNs)
			case "run":
				r.run += time.Duration(s.DurNs)
			}
		}
	}
	if w.sharded {
		args := []string{"-merge", "-q", "-out", mergedOut}
		for i := 0; i < legs[0].of; i++ {
			args = append(args, fmt.Sprintf(shardMani, i))
		}
		if err := r.exec(bin, dir, args, 0); err != nil {
			return r, err
		}
	}
	if r.run <= 0 {
		return r, fmt.Errorf("%s: sweep journals hold no run span", w.name)
	}
	r.log, err = checkLog(filepath.Join(dir, outputOf(w)), spec, w.allStabilize)
	return r, err
}

// exec runs one sweep process to completion and adds its wall time and
// CPU time to r.
func (r *repSample) exec(bin, dir string, args []string, wantExit int) error {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	r.wall += time.Since(start)
	var exit *exec.ExitError
	switch {
	case err == nil && wantExit == 0:
	case errors.As(err, &exit) && exit.ExitCode() == wantExit:
	default:
		return fmt.Errorf("sweep %v: exit %v, want exit code %d\n%s", args, err, wantExit, stderr.Bytes())
	}
	r.cpu += cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return nil
}

func readJournal(path string) ([]telemetry.SpanRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadJournal(f)
}

// e2eRun is the outcome of the timed repetitions of one workload.
type e2eRun struct {
	samples map[string][]float64
	log     logSummary
	reps    int
}

// runE2E repeats w until budget is spent (at least minReps times) and
// requires every repetition's log to match the first byte for byte
// after normalization. Each repetition starts only after the previous
// one has finished: a closed loop with one sweep process at a time.
func runE2E(bin, dir string, w workload, spec sweep.Spec, workers int, budget time.Duration) (e2eRun, error) {
	res := e2eRun{samples: make(map[string][]float64)}
	start := time.Now()
	for {
		t0 := time.Now()
		r, err := runRep(bin, dir, w, spec, workers)
		if err != nil {
			return res, err
		}
		if res.reps == 0 {
			res.log = r.log
		} else if r.log.Digest != res.log.Digest {
			return res, fmt.Errorf("%s: repetition %d wrote a different log than repetition 0 (digest %.12s… vs %.12s…)",
				w.name, res.reps, r.log.Digest, res.log.Digest)
		}
		r.addTo(res.samples)
		res.reps++
		// Stop before a repetition would overrun the budget, judging by
		// the one just finished.
		if res.reps >= minReps && time.Since(start)+time.Since(t0) > budget {
			return res, nil
		}
	}
}
