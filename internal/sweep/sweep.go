// Package sweep turns a declarative experiment grid — graph spec
// templates × size ladder × schedulers × protocols × drop rates — into a
// batch of deterministic trials for internal/runner, and its outcomes
// into internal/results records.
//
// A spec is either assembled from CLI flags (cmd/sweep) or parsed from a
// JSON file:
//
//	{
//	  "name": "table1-smoke",
//	  "seed": 42,
//	  "trials": 5,
//	  "graphs": ["clique:N", "cycle:N", "torus:NxN"],
//	  "sizes": [16, 32],
//	  "schedulers": ["uniform", "weighted:exp", "churn:64:16"],
//	  "protocols": ["six-state", "identifier", "fast"],
//	  "drop_rates": [0, 0.25]
//	}
//
// Graph templates use the popgraph.ParseGraph grammar with the literal
// letter N standing for a rung of the size ladder ("torus:NxN" becomes
// "torus:16x16"); templates without an N are fixed graphs, used once.
// Schedulers use the popgraph.ParseScheduler grammar; omitting the axis
// means the paper's uniform scheduler. Every trial's seed is derived
// from the spec seed, the cell's position in the grid and the trial
// index, so results are independent of worker count and identical
// across runs.
package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"popgraph"
	"popgraph/internal/graph"
	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/sim"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// Spec is a declarative sweep: the cross product of graphs (templates ×
// sizes), protocols and drop rates, each cell run Trials times.
type Spec struct {
	// Name labels the sweep in tables and logs.
	Name string `json:"name,omitempty"`
	// Seed is the base seed every per-trial seed derives from.
	Seed uint64 `json:"seed"`
	// Trials is the number of independent runs per grid cell.
	Trials int `json:"trials"`
	// Graphs are ParseGraph spec templates; the letter N is replaced by
	// each value of Sizes.
	Graphs []string `json:"graphs"`
	// Sizes is the size ladder substituted into templates containing N.
	Sizes []int `json:"sizes,omitempty"`
	// Schedulers are ParseScheduler specs; empty means the single
	// uniform scheduler.
	Schedulers []string `json:"schedulers,omitempty"`
	// Protocols are ParseProtocol specs.
	Protocols []string `json:"protocols"`
	// DropRates are interaction-failure probabilities in [0, 1); empty
	// means the single rate 0.
	DropRates []float64 `json:"drop_rates,omitempty"`
	// MaxSteps caps each trial; 0 means the engine default.
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// ParseJSON decodes and validates a spec from JSON. Unknown top-level
// keys are rejected with an error naming the key (catching typos like
// "grahps" in hand-written spec files), as is trailing content after
// the spec object. The removed "batch" key gets an error naming the
// removal, since the runner sizes its dispatch units itself.
func ParseJSON(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		// The stdlib reports unknown fields as `json: unknown field "x"`;
		// rewrap with the valid key set so the typo is obvious.
		if key, ok := strings.CutPrefix(err.Error(), `json: unknown field `); ok {
			if key == `"batch"` {
				return Spec{}, fmt.Errorf(`sweep: spec key "batch" was removed: trials are dispatched in units automatically`)
			}
			return Spec{}, fmt.Errorf(
				"sweep: spec has unknown key %s (valid keys: name, seed, trials, graphs, sizes, schedulers, protocols, drop_rates, max_steps)",
				key)
		}
		return Spec{}, fmt.Errorf("sweep: parsing spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("sweep: trailing content after the spec object")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks the spec for structural errors.
func (s Spec) Validate() error {
	if s.Trials < 1 {
		return fmt.Errorf("sweep: trials must be >= 1 (got %d)", s.Trials)
	}
	if len(s.Graphs) == 0 {
		return fmt.Errorf("sweep: no graphs")
	}
	if len(s.Protocols) == 0 {
		return fmt.Errorf("sweep: no protocols")
	}
	needSizes := false
	for _, t := range s.Graphs {
		if templateHasN(t) {
			needSizes = true
			break
		}
	}
	if needSizes && len(s.Sizes) == 0 {
		return fmt.Errorf("sweep: graph templates use N but no sizes given")
	}
	for _, n := range s.Sizes {
		if n < 2 {
			return fmt.Errorf("sweep: size %d too small", n)
		}
	}
	for _, q := range s.DropRates {
		if !(q >= 0 && q < 1) { // NaN fails every comparison
			return fmt.Errorf("sweep: drop rate %v outside [0, 1)", q)
		}
	}
	for _, spec := range s.Schedulers {
		if strings.TrimSpace(spec) == "" {
			return fmt.Errorf("sweep: empty scheduler spec")
		}
	}
	if s.MaxSteps < 0 {
		return fmt.Errorf("sweep: negative max_steps (got %d)", s.MaxSteps)
	}
	return s.checkTrialTotal()
}

// maxTrials caps a sweep's trial total, CellCount()·Trials: every trial
// gets a job up front, so the total shares the 2³¹−1 ceiling that graph
// sizes have (node ids and CSR offsets are int32).
const maxTrials = math.MaxInt32

// checkTrialTotal refuses a grid of more than maxTrials trials before
// anything is allocated for it. The total is a float64 product of the
// axis lengths, so it cannot overflow, and float64 rounding is monotone,
// so the comparison is exact.
func (s Spec) checkTrialTotal() error {
	cells := float64(s.graphCount()) * float64(len(s.schedulers())) *
		float64(len(s.Protocols)) * float64(len(s.dropRates()))
	if total := cells * float64(s.Trials); total > maxTrials {
		return fmt.Errorf("sweep: %.0f cells × %d trials is %.0f trials, over the limit of %d",
			cells, s.Trials, total, maxTrials)
	}
	return nil
}

// GraphSpecs expands the graph templates against the size ladder,
// template-major: each template with an N yields one spec per size,
// templates without an N yield themselves once. Snapshot templates
// (file:PATH) are always fixed graphs — their payload is a filesystem
// path, where a literal N must survive untouched.
func (s Spec) GraphSpecs() []string {
	var out []string
	for _, t := range s.Graphs {
		if !templateHasN(t) {
			out = append(out, t)
			continue
		}
		for _, n := range s.Sizes {
			out = append(out, strings.ReplaceAll(t, "N", strconv.Itoa(n)))
		}
	}
	return out
}

// graphCount returns len(s.GraphSpecs()) without expanding the
// templates.
func (s Spec) graphCount() int {
	n := 0
	for _, t := range s.Graphs {
		if templateHasN(t) {
			n += len(s.Sizes)
		} else {
			n++
		}
	}
	return n
}

// templateHasN reports whether a graph template takes the size ladder:
// it contains the substitution letter and is not a snapshot path spec.
func templateHasN(t string) bool {
	return !strings.HasPrefix(t, "file:") && strings.Contains(t, "N")
}

// GraphBuildSeed returns the construction seed Build hands ParseGraph
// for the gi-th expanded graph spec of a sweep seeded specSeed. It is
// exported for cmd/preprocess: a snapshot built with this seed holds
// the exact graph instance the sweep cell would generate, which is
// what makes a file:-spec sweep byte-identical to its generator-spec
// twin (the preprocess-roundtrip CI gate).
func GraphBuildSeed(specSeed uint64, gi int) uint64 { return mix(specSeed, gi) }

// dropRates returns the drop-rate axis, defaulting to {0}.
func (s Spec) dropRates() []float64 {
	if len(s.DropRates) == 0 {
		return []float64{0}
	}
	return s.DropRates
}

// schedulers returns the scheduler axis, defaulting to {"uniform"}.
func (s Spec) schedulers() []string {
	if len(s.Schedulers) == 0 {
		return []string{"uniform"}
	}
	return s.Schedulers
}

// Task is one grid cell: a fixed graph, scheduler, protocol and drop
// rate with its per-trial jobs (seeds already derived).
type Task struct {
	// GraphSpec is the expanded ParseGraph spec the graph was built from.
	GraphSpec string
	Graph     graph.Graph
	// SchedSpec is the ParseScheduler spec; Scheduler is the instance's
	// display name (they differ for shorthands like "weighted").
	SchedSpec string
	Scheduler string
	// ProtoSpec is the ParseProtocol spec; Protocol is the instance's
	// display name.
	ProtoSpec string
	Protocol  string
	DropRate  float64
	Jobs      []runner.Job
}

// mix derives the i-th child seed from base via a splitmix64 finalizer,
// keeping grid-cell streams disjoint from the golden-ratio trial streams
// layered on top by runner.SeedFor.
func mix(base uint64, i int) uint64 {
	x := base + 0x9e3779b97f4a7c15*uint64(i+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Build materializes the grid: graphs are constructed once per expanded
// spec and schedulers once per graph × scheduler spec (random families
// and random edge rates draw from a seed derived from the grid
// position, so every protocol and drop rate sees the same instance),
// and each cell gets Trials jobs with deterministic seeds.
func (s Spec) Build() ([]Task, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	specs := s.GraphSpecs()
	graphs := make([]graph.Graph, len(specs))
	for gi, spec := range specs {
		g, err := popgraph.ParseGraph(spec, xrand.New(mix(s.Seed, gi)))
		if err != nil {
			return nil, err
		}
		graphs[gi] = g
	}
	scheds := s.schedulers()
	var tasks []Task
	cell := 0
	for gi, g := range graphs {
		for si, schedSpec := range scheds {
			sched, err := popgraph.ParseScheduler(schedSpec, g,
				xrand.New(mix(s.Seed^0x5eedca11, gi*len(scheds)+si)))
			if err != nil {
				return nil, err
			}
			for _, proto := range s.Protocols {
				factory, err := popgraph.ProtocolFactory(proto, g,
					xrand.New(mix(s.Seed^0x5ca1ab1e, gi)))
				if err != nil {
					return nil, err
				}
				name := factory().Name()
				for _, q := range s.dropRates() {
					opts := sim.Options{MaxSteps: s.MaxSteps, DropRate: q, Scheduler: sched}
					tasks = append(tasks, Task{
						GraphSpec: specs[gi],
						Graph:     g,
						SchedSpec: schedSpec,
						Scheduler: sched.Name(),
						ProtoSpec: proto,
						Protocol:  name,
						DropRate:  q,
						Jobs:      runner.TrialJobs(g, factory, mix(s.Seed, cell+len(specs)), s.Trials, opts),
					})
					cell++
				}
			}
		}
	}
	return tasks, nil
}

// AttachTrajectories wires a telemetry.Trajectory observer into every
// trial job that does not already carry an observer, and returns the
// trajectories in grid order — trajectory i belongs to record i of a
// subsequent Execute, with Trial set to that flat index. Jobs with their
// own observer keep it and get a nil slot. Sampling rides the engine's
// Observe cadence: jobs without an explicit ObserveEvery sample every
// n steps (n = graph nodes), keeping observation cost O(steps/n) scans.
// Observer boundaries never perturb the random stream, so attaching
// trajectories leaves every record byte-identical.
func AttachTrajectories(tasks []Task, maxSamples int) []*telemetry.Trajectory {
	var out []*telemetry.Trajectory
	for ti := range tasks {
		t := &tasks[ti]
		for ji := range t.Jobs {
			j := &t.Jobs[ji]
			if j.Opts.Observer != nil {
				out = append(out, nil)
				continue
			}
			tr := telemetry.NewTrajectory(len(out), maxSamples)
			j.Opts.Observer = tr
			if j.Opts.ObserveEvery <= 0 {
				j.Opts.ObserveEvery = int64(t.Graph.N())
			}
			out = append(out, tr)
		}
	}
	return out
}

// Trials returns the total number of trials across all tasks.
func Trials(tasks []Task) int {
	total := 0
	for _, t := range tasks {
		total += len(t.Jobs)
	}
	return total
}

// CellCount returns the number of grid cells — tasks the spec's Build
// would materialize — without constructing any graph or scheduler or
// expanding a template. The trial grid a shard planner partitions has
// CellCount()·Trials entries.
func (s Spec) CellCount() int {
	return s.graphCount() * len(s.schedulers()) * len(s.Protocols) * len(s.dropRates())
}

// TrialRecord converts one trial's outcome into its results record. The
// record is a pure function of (task, trial, outcome) — apart from the
// two trailing wall-time fields, the records' only host-dependent
// content, which determinism comparisons normalize out — so a trial
// produces the same record bytes whether it ran in a solo sweep or on a
// remote shard.
func TrialRecord(t Task, trial int, o runner.Outcome) results.Record {
	return results.Record{
		Graph:       t.Graph.Name(),
		N:           t.Graph.N(),
		M:           t.Graph.M(),
		Scheduler:   t.Scheduler,
		Protocol:    t.Protocol,
		Trial:       trial,
		Seed:        t.Jobs[trial].Seed,
		DropRate:    t.DropRate,
		Steps:       o.Result.Steps,
		Stabilized:  o.Result.Stabilized,
		Leader:      o.Result.Leader,
		Backup:      o.Backup,
		Error:       o.Err,
		ElapsedNs:   o.ElapsedNs,
		QueueWaitNs: o.QueueWaitNs,
	}
}

// Execute runs every task's trials through one shared pool (so the whole
// grid saturates the workers, not one cell at a time) and returns one
// record per trial in grid order — deterministic for any worker count.
//
//popcheck:ignore deadexport shard tests compare sharded runs against the in-memory grid
func Execute(tasks []Task, pool runner.Pool) []results.Record {
	recs := make([]results.Record, 0, Trials(tasks))
	ExecuteStream(tasks, pool, func(rec results.Record) {
		recs = append(recs, rec)
	})
	return recs
}

// ExecuteStream runs the grid like Execute but delivers each record to
// emit — on a single goroutine, in grid order, as soon as the trial and
// all its predecessors finish — instead of collecting them. Streaming
// consumers (the JSONL writer, the aggregate accumulator, shard
// checkpoints) see the exact record sequence Execute would return
// without anyone holding the whole batch in memory.
func ExecuteStream(tasks []Task, pool runner.Pool, emit func(results.Record)) {
	var jobs []runner.Job
	// taskOf/trialOf map the flat job index back to its grid cell.
	var taskOf, trialOf []int
	for ti := range tasks {
		for trial := range tasks[ti].Jobs {
			jobs = append(jobs, tasks[ti].Jobs[trial])
			taskOf = append(taskOf, ti)
			trialOf = append(trialOf, trial)
		}
	}
	pool.Stream(jobs, func(i int, o runner.Outcome) {
		emit(TrialRecord(tasks[taskOf[i]], trialOf[i], o))
	})
}
