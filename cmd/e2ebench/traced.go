package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"popgraph"
	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/shard"
	"popgraph/internal/sim"
	"popgraph/internal/stats"
	"popgraph/internal/sweep"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// span is one timed call into a layer of the program, made by the
// traced run from the benchmark's own code: nothing inside the program
// is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Lanes is how many children can run at once: the pool's workers
	// for runner.stream, whose children are the trials. 0 means serial.
	Lanes int `json:"lanes,omitempty"`
	// FoldedNs is the summed duration of children that were folded into
	// per-layer sums instead of being kept (the trials).
	FoldedNs int64 `json:"folded_ns,omitempty"`
}

// selfNs is a span's self time: the time its lanes were open minus the
// time its children covered them. Children of a serial span never
// overlap, and each lane of a parallel span runs one child at a time,
// so the covered time is the children's summed duration.
func selfNs(durNs int64, lanes int, childNs int64) int64 {
	if lanes < 1 {
		lanes = 1
	}
	return int64(lanes)*durNs - childNs
}

// tracer keeps the spans of one traced run in memory.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return err
}

func (t *tracer) dur(id int) int64 { return t.spans[id].End - t.spans[id].Start }

// self returns span id's self time.
func (t *tracer) self(id int) int64 {
	child := t.spans[id].FoldedNs
	for _, s := range t.spans {
		if s.Parent == id {
			child += s.End - s.Start
		}
	}
	return selfNs(t.dur(id), t.spans[id].Lanes, child)
}

// total sums the durations of every span named name, in seconds.
func (t *tracer) total(name string) float64 {
	var ns int64
	for i, s := range t.spans {
		if s.Name == name {
			ns += t.dur(i)
		}
	}
	return float64(ns) / 1e9
}

// trialFold folds the per-trial spans: each trial's own span (runner's
// ElapsedNs) and its children, protocol construction and plan compile.
// Worker goroutines add the children concurrently; the pool's drainer
// adds the trial spans and the record sink's calls one at a time.
type trialFold struct {
	newNs, compileNs atomic.Int64

	n, elapsedNs   int64
	maxNs          int64
	maxTrial       int
	dist           stats.Stream // per-trial µs
	writeNs, aggNs int64
	appendNs       int64
	manifestWrites int64
	manifestBytes  int64
	// sinkErr is the first error a record sink returned.
	sinkErr error
}

// tracedRun is the outcome of one traced in-process run.
type tracedRun struct {
	layers map[string]float64
	log    logSummary
	// tailPct is the percentile runner.trial_us_tail reports, over
	// samples trials.
	tailPct float64
	samples int
}

// runTraced executes the workload once in-process through the same
// library calls cmd/sweep makes, timing each call into a layer. The
// construction layers are timed again on their own (graph, scheduler
// and protocol factory per grid entry), because sweep.Spec.Build runs
// them all inside one call; that extra work is part of the traced wall
// time and so of trace.overhead_frac.
func runTraced(dir string, w workload, specJSON []byte, workers int) (tracedRun, error) {
	res := tracedRun{layers: make(map[string]float64)}
	if err := os.RemoveAll(dir); err != nil {
		return res, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	runtime.GC() // start from a collected heap, outside the trace
	tr := newTracer()
	root := tr.begin("e2ebench.traced", -1)
	var (
		spec  sweep.Spec
		edges int
		heap  uint64
		meter = new(telemetry.Counters)
		tf    = new(trialFold)
	)
	err := tr.do("sweep.parse", root, func() (err error) {
		spec, err = sweep.ParseJSON(specJSON)
		return err
	})
	if err != nil {
		return res, err
	}
	if edges, err = retimeConstruction(tr, root, spec); err != nil {
		return res, err
	}
	// Collect the re-timed graphs so sweep.heap_mb sees only what Build
	// keeps. The collection is the benchmark's own work, not a layer's,
	// so it counts toward trace.residual_frac.
	runtime.GC()

	legs := legsOf(w, spec)
	for i, l := range legs {
		var tasks []sweep.Task
		err := tr.do("sweep.build", root, func() (err error) {
			tasks, err = spec.Build()
			return err
		})
		if err != nil {
			return res, err
		}
		if i == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heap = ms.HeapInuse
		}
		if err := runLeg(tr, root, dir, w, spec, tasks, l, workers, meter, tf); err != nil {
			return res, err
		}
	}
	out := filepath.Join(dir, outputOf(w))
	if w.sharded {
		if err := mergeLegs(tr, root, dir, spec, legs[0].of, out); err != nil {
			return res, err
		}
	}
	tr.end(root)
	if tf.sinkErr != nil {
		return res, fmt.Errorf("traced %s: %w", w.name, tf.sinkErr)
	}

	res.log, err = checkLog(out, spec, w.allStabilize)
	if err != nil {
		return res, fmt.Errorf("traced run: %w", err)
	}
	snap := meter.Snapshot()
	if snap.StepsExecuted != res.log.Steps {
		return res, fmt.Errorf("traced %s: meter counted %d steps, the records sum to %d",
			w.name, snap.StepsExecuted, res.log.Steps)
	}
	res.tailPct = fillLayers(res.layers, tr, root, snap, tf, heap, edges, workers, res.log)
	res.samples = int(tf.n)
	return res, writeTrace(filepath.Join(dir, traceFile), tr, tf)
}

// retimeConstruction times, per expanded graph spec, building the graph
// with the seed Build uses, then each scheduler and protocol factory on
// it. It returns the summed edge count.
func retimeConstruction(tr *tracer, root int, spec sweep.Spec) (int, error) {
	scheds := spec.Schedulers
	if len(scheds) == 0 {
		scheds = []string{"uniform"}
	}
	edges := 0
	for gi, gs := range spec.GraphSpecs() {
		// Scheduler and factory construction cost does not depend on
		// which seed draws their randomness, so one derived seed serves.
		seed := sweep.GraphBuildSeed(spec.Seed, gi)
		var g popgraph.Graph
		err := tr.do("graph.build", root, func() (err error) {
			g, err = popgraph.ParseGraph(gs, xrand.New(seed))
			return err
		})
		if err != nil {
			return 0, err
		}
		edges += g.M()
		for _, s := range scheds {
			err := tr.do("sched.build", root, func() error {
				_, err := popgraph.ParseScheduler(s, g, xrand.New(seed))
				return err
			})
			if err != nil {
				return 0, err
			}
		}
		for _, p := range spec.Protocols {
			err := tr.do("protocols.factory", root, func() error {
				_, err := popgraph.ProtocolFactory(p, g, xrand.New(seed))
				return err
			})
			if err != nil {
				return 0, err
			}
		}
	}
	return edges, nil
}

// recordSink is where a leg's records go: a buffered JSONL file for an
// unsharded run, a checkpointing shard.Writer otherwise.
type recordSink interface {
	Append(global int, rec results.Record) error
	Close() error
}

type jsonlSink struct {
	f   *os.File
	buf *bufio.Writer
}

func (s *jsonlSink) Append(_ int, rec results.Record) error {
	return results.Write(s.buf, []results.Record{rec})
}

func (s *jsonlSink) Close() error {
	if err := s.buf.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// runLeg mirrors one cmd/sweep process after its grid is built: open the
// record sink (resuming a checkpoint when one exists), stream the leg's
// cells through a pool, close the sink and render the summary table.
func runLeg(tr *tracer, root int, dir string, w workload, spec sweep.Spec, tasks []sweep.Task,
	l leg, workers int, meter *telemetry.Counters, tf *trialFold) error {
	var plan shard.Shard
	err := tr.do("shard.plan", root, func() (err error) {
		plan, err = shard.PlanOne(spec, l.shard, l.of)
		return err
	})
	if err != nil {
		return err
	}
	acc := results.NewAccumulator()
	var (
		sink     recordSink
		skip     int
		manifest string
	)
	if !w.sharded {
		err = tr.do("results.open", root, func() error {
			f, err := os.Create(filepath.Join(dir, plainOut))
			if err != nil {
				return err
			}
			sink = &jsonlSink{f: f, buf: bufio.NewWriterSize(f, 64*1024)}
			return nil
		})
	} else {
		manifest = filepath.Join(dir, fmt.Sprintf(shardMani, l.shard))
		name := "shard.open"
		if _, statErr := os.Stat(manifest); statErr == nil {
			name = "shard.resume"
		} else {
			tf.manifestWrites++ // a fresh writer checkpoints its empty state
		}
		out := fmt.Sprintf(shardOut, l.shard)
		err = tr.do(name, root, func() (err error) {
			var sw *shard.Writer
			sw, skip, err = shard.Open(filepath.Join(dir, out), manifest, shard.Manifest{
				Schema:     shard.ManifestSchema,
				SpecHash:   shard.SpecHash(spec),
				SpecName:   spec.Name,
				Seed:       spec.Seed,
				Shard:      l.shard,
				Of:         l.of,
				TotalCells: plan.Total,
				Records:    out,
				NoTiming:   true,
			})
			sink = sw
			return err
		})
		if err == nil && skip > 0 {
			err = tr.do("results.read", root, func() error {
				return readInto(filepath.Join(dir, out), acc)
			})
		}
	}
	if err != nil {
		return err
	}

	cells := plan.Cells[skip:]
	if l.stopAfter > 0 && l.stopAfter < len(cells) {
		cells = cells[:l.stopAfter]
	}
	streamCells(tr, root, tasks, cells, workers, meter, tf, func(c shard.Cell, rec results.Record) {
		if w.sharded {
			rec.ElapsedNs, rec.QueueWaitNs = 0, 0 // -no-timing
		}
		t0 := time.Now()
		acc.Add(rec)
		t1 := time.Now()
		err := sink.Append(c.Global, rec)
		t2 := time.Now()
		tf.aggNs += t1.Sub(t0).Nanoseconds()
		if w.sharded {
			tf.appendNs += t2.Sub(t1).Nanoseconds()
			tf.manifestWrites++
			if fi, statErr := os.Stat(manifest); statErr == nil {
				tf.manifestBytes += fi.Size()
			}
		} else {
			tf.writeNs += t2.Sub(t1).Nanoseconds()
		}
		if err != nil && tf.sinkErr == nil {
			tf.sinkErr = err
		}
	})
	closeSpan := "results.close"
	if w.sharded {
		closeSpan = "shard.close"
	}
	if err := tr.do(closeSpan, root, sink.Close); err != nil {
		return err
	}
	return summarize(tr, root, spec.Name, spec.Seed, acc)
}

// streamCells runs cells through one runner.Pool.Stream, the way
// shard.Execute does, with each job's protocol constructor wrapped to
// time construction and the plan compile the runner is about to do.
// emit runs on the pool's drainer goroutine, in cell order.
func streamCells(tr *tracer, root int, tasks []sweep.Task, cells []shard.Cell, workers int,
	meter *telemetry.Counters, tf *trialFold, emit func(shard.Cell, results.Record)) {
	jobs := make([]runner.Job, len(cells))
	for i, c := range cells {
		j := tasks[c.Task].Jobs[c.Trial]
		newProto, g, opts := j.New, j.Graph, j.Opts
		j.New = func() sim.Protocol {
			t0 := time.Now()
			p := newProto()
			t1 := time.Now()
			// The runner compiles the same (graph, options) right after
			// this returns and reports any error itself.
			_, _ = sim.Compile(g, opts)
			tf.newNs.Add(t1.Sub(t0).Nanoseconds())
			tf.compileNs.Add(time.Since(t1).Nanoseconds())
			return p
		}
		jobs[i] = j
	}
	id := tr.begin("runner.stream", root)
	tr.spans[id].Lanes = workers
	var elapsedNs int64
	pool := runner.Pool{Workers: workers, Meter: meter}
	pool.Stream(jobs, func(i int, o runner.Outcome) {
		tf.n++
		elapsedNs += o.ElapsedNs
		tf.dist.Add(float64(o.ElapsedNs) / 1e3)
		if o.ElapsedNs > tf.maxNs {
			tf.maxNs, tf.maxTrial = o.ElapsedNs, cells[i].Global
		}
		emit(cells[i], sweep.TrialRecord(tasks[cells[i].Task], cells[i].Trial, o))
	})
	tr.end(id)
	tr.spans[id].FoldedNs = elapsedNs
	tf.elapsedNs += elapsedNs
}

// mergeLegs merges the shard logs into out and re-reads the merged log
// into a summary table, as cmd/sweep -merge does.
func mergeLegs(tr *tracer, root int, dir string, spec sweep.Spec, of int, out string) error {
	manifests := make([]string, of)
	for i := range manifests {
		manifests[i] = filepath.Join(dir, fmt.Sprintf(shardMani, i))
	}
	err := tr.do("shard.merge", root, func() error {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := shard.Merge(f, manifests); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	acc := results.NewAccumulator()
	if err := tr.do("results.read", root, func() error { return readInto(out, acc) }); err != nil {
		return err
	}
	return summarize(tr, root, spec.Name, spec.Seed, acc)
}

func readInto(path string, acc *results.Accumulator) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return results.ForEach(f, func(rec results.Record) error {
		acc.Add(rec)
		return nil
	})
}

// summarize renders the summary table cmd/sweep prints at the end of a
// process.
func summarize(tr *tracer, root int, name string, seed uint64, acc *results.Accumulator) error {
	return tr.do("results.aggregate", root, func() error {
		t := results.SummaryTable(fmt.Sprintf("%s (seed %d)", name, seed), acc.Groups())
		t.WriteText(io.Discard)
		return nil
	})
}

// fillLayers computes the per-layer metrics of a finished traced run and
// returns the percentile runner.trial_us_tail reports.
func fillLayers(m map[string]float64, tr *tracer, root int, snap telemetry.Snapshot, tf *trialFold,
	heap uint64, edges, workers int, log logSummary) float64 {
	newNs, compileNs := tf.newNs.Load(), tf.compileNs.Load()
	runNs := tf.elapsedNs - newNs - compileNs
	var streamNs, idleNs int64
	for i, s := range tr.spans {
		if s.Name == "runner.stream" {
			streamNs += tr.dur(i)
			idleNs += tr.self(i)
		}
	}
	perTrial := func(ns int64) float64 { return float64(ns) / float64(max(tf.n, 1)) }
	perMStep := func(n int64) float64 { return float64(n) * 1e6 / float64(max(snap.StepsExecuted, 1)) }

	m["sweep.parse_s"] = tr.total("sweep.parse")
	m["sweep.build_s"] = tr.total("sweep.build")
	m["sweep.heap_mb"] = float64(heap) / (1 << 20)
	m["graph.build_s"] = tr.total("graph.build")
	m["graph.edges"] = float64(edges)
	m["sched.build_s"] = tr.total("sched.build")
	m["protocols.factory_s"] = tr.total("protocols.factory")
	m["protocols.new_s"] = float64(newNs) / 1e9
	m["protocols.new_ns_mean"] = perTrial(newNs)
	m["sim.compile_s"] = float64(compileNs) / 1e9
	m["sim.compile_ns_mean"] = perTrial(compileNs)
	m["sim.run_s"] = float64(runNs) / 1e9
	m["sim.ns_per_step"] = float64(runNs) / float64(max(snap.StepsExecuted, 1))
	m["sim.steps"] = float64(snap.StepsExecuted)
	m["sim.chunks_per_mstep"] = perMStep(snap.ChunksRun)
	m["sim.refills_per_mstep"] = perMStep(snap.RNGRefills)
	m["sim.drops"] = float64(snap.DropsApplied)
	for _, l := range engineLabels {
		m[engineMetric(l)] = 0
	}
	m["sim.runs.other"] = 0
	for label, n := range snap.KernelDispatch {
		if _, ok := m[engineMetric(label)]; ok {
			m[engineMetric(label)] += float64(n)
		} else {
			m["sim.runs.other"] += float64(n)
		}
	}
	m["runner.stream_s"] = float64(streamNs) / 1e9
	m["runner.busy_frac"] = float64(tf.elapsedNs) / float64(max(int64(workers)*streamNs, 1))
	m["runner.idle_s"] = float64(idleNs) / 1e9
	tailPct := tailPercentile(int(tf.n))
	if tf.n > 0 {
		m["runner.trial_us_p50"] = tf.dist.Quantile(0.5)
		m["runner.trial_us_tail"] = tf.dist.Quantile(tailPct / 100)
	}
	m["results.write_s"] = float64(tf.writeNs)/1e9 + tr.total("results.open") + tr.total("results.close")
	m["results.aggregate_s"] = float64(tf.aggNs)/1e9 + tr.total("results.aggregate")
	m["results.read_s"] = tr.total("results.read")
	m["results.bytes"] = float64(log.Bytes)
	m["shard.append_s"] = float64(tf.appendNs) / 1e9
	m["shard.manifest_writes"] = float64(tf.manifestWrites)
	m["shard.manifest_bytes"] = float64(tf.manifestBytes)
	m["shard.resume_s"] = tr.total("shard.resume")
	m["shard.merge_s"] = tr.total("shard.merge")
	m["trace.wall_s"] = float64(tr.dur(root)) / 1e9
	m["trace.residual_frac"] = float64(tr.self(root)) / float64(tr.dur(root))
	return tailPct
}

// writeTrace writes the kept spans, then one line per folded per-trial
// layer, as JSONL.
func writeTrace(path string, tr *tracer, tf *trialFold) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	type fold struct {
		Name     string `json:"name"`
		Parent   string `json:"parent"`
		Count    int64  `json:"count"`
		SumNs    int64  `json:"sum_ns"`
		MaxNs    int64  `json:"max_ns,omitempty"`
		MaxTrial int    `json:"max_trial,omitempty"`
	}
	folds := []fold{
		{"runner.trial", "runner.stream", tf.n, tf.elapsedNs, tf.maxNs, tf.maxTrial},
		{"protocols.new", "runner.trial", tf.n, tf.newNs.Load(), 0, 0},
		{"sim.compile", "runner.trial", tf.n, tf.compileNs.Load(), 0, 0},
	}
	for _, fd := range folds {
		if err := enc.Encode(fd); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
