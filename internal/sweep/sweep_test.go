package sweep

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/telemetry"
)

func smokeSpec() Spec {
	return Spec{
		Name:      "smoke",
		Seed:      42,
		Trials:    3,
		Graphs:    []string{"clique:N", "cycle:N", "star:12"},
		Sizes:     []int{8, 16},
		Protocols: []string{"six-state"},
	}
}

func TestParseJSON(t *testing.T) {
	spec, err := ParseJSON([]byte(`{
		"name": "demo", "seed": 7, "trials": 2,
		"graphs": ["clique:N", "torus:NxN"], "sizes": [8],
		"protocols": ["six-state", "fast"], "drop_rates": [0, 0.5],
		"max_steps": 100000
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "demo" || spec.Seed != 7 || spec.Trials != 2 ||
		len(spec.Graphs) != 2 || len(spec.Protocols) != 2 ||
		len(spec.DropRates) != 2 || spec.MaxSteps != 100000 {
		t.Fatalf("parsed spec %+v", spec)
	}
}

func TestParseJSONRejectsUnknownFields(t *testing.T) {
	_, err := ParseJSON([]byte(`{"seed": 1, "trials": 1, "graphs": ["clique:8"], "protocols": ["six-state"], "grahps": []}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	// The error must name the offending key and the valid key set, so a
	// typo in a hand-written spec is a one-glance fix.
	for _, want := range []string{`"grahps"`, "graphs", "schedulers"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestParseJSONRejectsRemovedBatch — specs written for the removed
// lockstep engine carry "batch"; they get an error naming the removal
// rather than the generic unknown-key message.
func TestParseJSONRejectsRemovedBatch(t *testing.T) {
	_, err := ParseJSON([]byte(`{"seed": 1, "trials": 1, "graphs": ["clique:8"], "protocols": ["six-state"], "batch": 8}`))
	if err == nil {
		t.Fatal(`spec with "batch" accepted`)
	}
	if !strings.Contains(err.Error(), `"batch" was removed`) {
		t.Fatalf("error %q does not name the removal", err)
	}
}

func TestParseJSONRejectsTrailingContent(t *testing.T) {
	_, err := ParseJSON([]byte(`{"seed": 1, "trials": 1, "graphs": ["clique:8"], "protocols": ["six-state"]}{"seed": 2}`))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing content: %v", err)
	}
}

func TestParseJSONSchedulers(t *testing.T) {
	spec, err := ParseJSON([]byte(`{"seed": 1, "trials": 1, "graphs": ["clique:8"],
		"schedulers": ["uniform", "weighted:exp"], "protocols": ["six-state"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Schedulers) != 2 {
		t.Fatalf("schedulers %v", spec.Schedulers)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Spec)
	}{
		{"no trials", func(s *Spec) { s.Trials = 0 }},
		{"no graphs", func(s *Spec) { s.Graphs = nil }},
		{"no protocols", func(s *Spec) { s.Protocols = nil }},
		{"N without sizes", func(s *Spec) { s.Sizes = nil }},
		{"tiny size", func(s *Spec) { s.Sizes = []int{1} }},
		{"bad drop", func(s *Spec) { s.DropRates = []float64{1} }},
		{"NaN drop", func(s *Spec) { s.DropRates = []float64{0.1, math.NaN()} }},
		{"negative cap", func(s *Spec) { s.MaxSteps = -1 }},
		{"blank scheduler", func(s *Spec) { s.Schedulers = []string{"uniform", " "} }},
	}
	for _, c := range cases {
		s := smokeSpec()
		c.edit(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validation passed", c.name)
		}
	}
	if err := smokeSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestParseJSONTrialTotal — a grid whose trial total, CellCount()·Trials,
// exceeds 2³¹−1 is an error naming the total, even when the int product
// would wrap, and nothing is allocated for it.
func TestParseJSONTrialTotal(t *testing.T) {
	cases := []struct {
		name, json, total string // total == "" means accepted
	}{
		{"at the limit", `{"trials": 2147483647, "graphs": ["clique:8"], "protocols": ["six-state"]}`, ""},
		{"one cell over", `{"trials": 2147483648, "graphs": ["clique:8"], "protocols": ["six-state"]}`, "2147483648 trials"},
		{"cells times trials", `{"trials": 1000000000, "graphs": ["clique:N", "star:12"], "sizes": [8, 16, 32],
			"protocols": ["six-state"]}`, "4000000000 trials"},
		{"product wraps int64", `{"trials": 4611686018427387904, "graphs": ["clique:N"], "sizes": [8, 16],
			"protocols": ["six-state", "fast"]}`, "18446744073709551616 trials"},
		{"every axis counts", `{"trials": 100000000, "graphs": ["clique:8"], "schedulers": ["uniform", "node-clock"],
			"protocols": ["six-state", "fast", "identifier"], "drop_rates": [0, 0.1, 0.2, 0.3]}`, "2400000000 trials"},
	}
	for _, c := range cases {
		s, err := ParseJSON([]byte(c.json))
		if c.total == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			} else if got := s.CellCount() * s.Trials; got != math.MaxInt32 {
				t.Errorf("%s: %d trials", c.name, got)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.total) {
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.total)
		}
	}
}

func TestGraphSpecsExpansion(t *testing.T) {
	got := smokeSpec().GraphSpecs()
	want := []string{"clique:8", "clique:16", "cycle:8", "cycle:16", "star:12"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GraphSpecs() = %v, want %v", got, want)
	}
	s := Spec{Graphs: []string{"torus:NxN"}, Sizes: []int{4}}
	if got := s.GraphSpecs(); got[0] != "torus:4x4" {
		t.Fatalf("multi-substitution got %v", got)
	}
}

func TestBuildGrid(t *testing.T) {
	s := smokeSpec()
	s.DropRates = []float64{0, 0.25}
	tasks, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 5 graphs × 1 protocol × 2 drop rates.
	if len(tasks) != 10 {
		t.Fatalf("built %d tasks, want 10", len(tasks))
	}
	if got := Trials(tasks); got != 30 {
		t.Fatalf("total trials %d, want 30", got)
	}
	seen := make(map[uint64]bool)
	for _, task := range tasks {
		if len(task.Jobs) != 3 {
			t.Fatalf("task %+v has %d jobs", task.GraphSpec, len(task.Jobs))
		}
		if task.Protocol == "" {
			t.Fatal("task lacks a protocol display name")
		}
		for _, j := range task.Jobs {
			if seen[j.Seed] {
				t.Fatalf("duplicate trial seed %d", j.Seed)
			}
			seen[j.Seed] = true
		}
	}
}

func TestBuildSharesRandomGraphsAcrossProtocols(t *testing.T) {
	s := Spec{
		Seed:      5,
		Trials:    1,
		Graphs:    []string{"gnp:24:0.3"},
		Protocols: []string{"six-state", "identifier"},
	}
	tasks, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatalf("built %d tasks, want 2", len(tasks))
	}
	if tasks[0].Graph != tasks[1].Graph {
		t.Fatal("protocols got different instances of the same random graph")
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	s := smokeSpec()
	s.Graphs = []string{"noSuchFamily:8"}
	if _, err := s.Build(); err == nil {
		t.Fatal("bad graph family accepted")
	}
	s = smokeSpec()
	s.Protocols = []string{"no-such-protocol"}
	if _, err := s.Build(); err == nil {
		t.Fatal("bad protocol accepted")
	}
	s = smokeSpec()
	s.Schedulers = []string{"no-such-scheduler"}
	if _, err := s.Build(); err == nil {
		t.Fatal("bad scheduler accepted")
	}
}

// TestBuildSchedulerAxis — the scheduler axis multiplies the grid, every
// task carries its scheduler's display name, and the weighted
// scheduler's random edge rates are constructed once per graph ×
// scheduler cell (deterministically), not once per trial.
func TestBuildSchedulerAxis(t *testing.T) {
	s := Spec{
		Seed:   3,
		Trials: 2,
		Graphs: []string{"cycle:12"},
		Schedulers: []string{
			"uniform", "weighted:exp", "node-clock", "churn:8:2",
		},
		Protocols: []string{"six-state"},
	}
	tasks, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 4 {
		t.Fatalf("built %d tasks, want 4", len(tasks))
	}
	wantNames := []string{"uniform", "weighted:exp", "node-clock", "churn:8:2"}
	for i, task := range tasks {
		if task.Scheduler != wantNames[i] {
			t.Fatalf("task %d scheduler %q, want %q", i, task.Scheduler, wantNames[i])
		}
		if task.SchedSpec != s.Schedulers[i] {
			t.Fatalf("task %d spec %q", i, task.SchedSpec)
		}
		for _, j := range task.Jobs {
			if j.Opts.Scheduler == nil {
				t.Fatalf("task %d jobs lack the scheduler option", i)
			}
		}
	}
	// Rebuilding yields the same weighted instance behaviourally: same
	// seeds, same scheduler names, same job count.
	again, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		if tasks[i].Scheduler != again[i].Scheduler ||
			tasks[i].Jobs[0].Seed != again[i].Jobs[0].Seed {
			t.Fatalf("rebuild diverged at task %d", i)
		}
	}
}

// TestExecuteByteIdenticalAcrossWorkerCounts is the subsystem's core
// guarantee: the JSONL log is byte-identical at one worker and at
// NumCPU workers for the same spec and seed — including over every
// scheduler (stateful churn sources and random weighted rates must not
// leak scheduling order into results).
func TestExecuteByteIdenticalAcrossWorkerCounts(t *testing.T) {
	s := Spec{
		Seed:   2022,
		Trials: 4,
		Graphs: []string{"clique:N", "cycle:N", "star:N"},
		Sizes:  []int{8, 12},
		Schedulers: []string{
			"uniform", "weighted:exp", "weighted:degprod", "node-clock", "churn:8:2",
		},
		Protocols: []string{"six-state"},
		DropRates: []float64{0, 0.25},
	}
	encode := func(workers int) []byte {
		tasks, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		recs := Execute(tasks, runner.Pool{Workers: workers})
		// The two wall-time fields are the records' only host-dependent
		// content; zero them so the comparison covers exactly the
		// deterministic part of the log.
		for i := range recs {
			recs[i].ElapsedNs, recs[i].QueueWaitNs = 0, 0
		}
		var buf bytes.Buffer
		if err := results.Write(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	parallel := encode(runtime.NumCPU())
	if !bytes.Equal(serial, parallel) {
		t.Fatal("JSONL output differs between -workers=1 and -workers=NumCPU")
	}
	if len(serial) == 0 {
		t.Fatal("no output produced")
	}
	recs, err := results.Read(bytes.NewReader(serial))
	if err != nil {
		t.Fatal(err)
	}
	// 6 graphs × 5 schedulers × 2 drop rates × 4 trials.
	if len(recs) != 6*5*2*4 {
		t.Fatalf("decoded %d records, want %d", len(recs), 6*5*2*4)
	}
	for i := range recs {
		if recs[i].Scheduler == "" {
			t.Fatalf("record %d lacks a scheduler name", i)
		}
	}
	acc := results.NewAccumulator()
	for _, rec := range recs {
		acc.Add(rec)
	}
	if got := len(acc.Groups()); got != 6*5*2 {
		t.Fatalf("aggregated into %d groups, want %d", got, 6*5*2)
	}
}

// TestExecuteStreamUnitsByteIdentical — the runner sizes its dispatch
// units from the job count and worker count (here 8, 5 and 1 trials per
// unit at 1, 3 and 16 workers), and the streamed records must not
// notice: every worker count gives the same bytes, across the scheduler
// axis and with crashed star trials included.
func TestExecuteStreamUnitsByteIdentical(t *testing.T) {
	s := Spec{
		Seed:   7,
		Trials: 40,
		Graphs: []string{"clique:N", "star:N"},
		Sizes:  []int{8},
		Schedulers: []string{
			"uniform", "weighted:exp", "node-clock",
		},
		Protocols: []string{"six-state", "star"},
		DropRates: []float64{0, 0.25},
	}
	encode := func(workers int) []byte {
		tasks, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		var recs []results.Record
		ExecuteStream(tasks, runner.Pool{Workers: workers}, func(rec results.Record) {
			recs = append(recs, rec)
		})
		for i := range recs {
			recs[i].ElapsedNs, recs[i].QueueWaitNs = 0, 0
		}
		var buf bytes.Buffer
		if err := results.Write(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := encode(1)
	if len(want) == 0 {
		t.Fatal("no output produced")
	}
	for _, workers := range []int{3, 16} {
		if got := encode(workers); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d records differ from the one-worker grid", workers)
		}
	}
}

// TestExecuteMeterMatchesRecords is the flight recorder's accounting
// identity: a pool-level meter's steps_executed equals the sum of the
// per-trial steps in the results log, exactly, and the trial count
// matches the grid.
func TestExecuteMeterMatchesRecords(t *testing.T) {
	s := Spec{
		Seed:      9,
		Trials:    3,
		Graphs:    []string{"clique:N", "cycle:N"},
		Sizes:     []int{8, 12},
		Protocols: []string{"six-state"},
		DropRates: []float64{0, 0.25},
	}
	tasks, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	meter := new(telemetry.Counters)
	recs := Execute(tasks, runner.Pool{Workers: 4, Meter: meter})
	snap := meter.Snapshot()
	var wantSteps int64
	for _, r := range recs {
		wantSteps += r.Steps
	}
	if snap.StepsExecuted != wantSteps {
		t.Fatalf("meter steps %d, records sum %d", snap.StepsExecuted, wantSteps)
	}
	if int(snap.TrialsRun) != len(recs) {
		t.Fatalf("meter trials %d, records %d", snap.TrialsRun, len(recs))
	}
	for _, r := range recs {
		if r.ElapsedNs < 0 || r.QueueWaitNs < 0 {
			t.Fatalf("negative timing in record %+v", r)
		}
	}
}

// TestAttachTrajectories — one trajectory per trial in grid order, each
// closing with a terminal sample that agrees with the trial's record
// (step count, and a single leader for stabilized trials) — and the
// records themselves stay byte-identical to an unobserved run.
func TestAttachTrajectories(t *testing.T) {
	s := Spec{
		Seed:      17,
		Trials:    2,
		Graphs:    []string{"clique:8", "cycle:12"},
		Protocols: []string{"six-state"},
	}
	build := func() []Task {
		tasks, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tasks
	}
	bare := Execute(build(), runner.Pool{Workers: 2})
	tasks := build()
	trajs := AttachTrajectories(tasks, 64)
	if want := Trials(tasks); len(trajs) != want {
		t.Fatalf("%d trajectories, want %d", len(trajs), want)
	}
	recs := Execute(tasks, runner.Pool{Workers: 2})
	for i, r := range recs {
		if r.Steps != bare[i].Steps || r.Leader != bare[i].Leader {
			t.Fatalf("record %d diverged with trajectories attached: %+v vs %+v",
				i, r, bare[i])
		}
		tr := trajs[i]
		if tr == nil {
			t.Fatalf("trajectory %d missing", i)
		}
		samples := tr.Samples()
		if len(samples) == 0 {
			t.Fatalf("trajectory %d empty", i)
		}
		last := samples[len(samples)-1]
		if !last.Final || last.Trial != i || last.Step != r.Steps {
			t.Fatalf("trajectory %d terminal sample %+v, record steps %d",
				i, last, r.Steps)
		}
		if r.Stabilized && last.Leaders != 1 {
			t.Fatalf("trajectory %d terminal leaders %d for stabilized trial",
				i, last.Leaders)
		}
	}
	// A job with its own observer is left alone: nil slot, observer kept.
	tasks = build()
	obs := &countingObserver{}
	tasks[0].Jobs[0].Opts.Observer = obs
	trajs = AttachTrajectories(tasks, 64)
	if trajs[0] != nil {
		t.Fatal("pre-observed job was reassigned a trajectory")
	}
	if tasks[0].Jobs[0].Opts.Observer != obs {
		t.Fatal("pre-existing observer clobbered")
	}
	for i := 1; i < len(trajs); i++ {
		if trajs[i] == nil {
			t.Fatalf("trajectory %d missing", i)
		}
	}
}

type countingObserver struct{ n int }

func (c *countingObserver) Observe(int64) { c.n++ }
