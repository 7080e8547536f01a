// Convergence trajectories: per-trial (step, leaders, gap) curves
// sampled through the simulator's observer hook, for plotting how a
// protocol approaches stability against the paper's bound rather than
// only recording when it got there.

package telemetry

import (
	"fmt"
	"io"
	"os"

	"popgraph/internal/core"
	"popgraph/internal/jsonl"
)

// TrajectorySample is one point of a convergence curve. Step is the
// 1-based interaction count at which the sample was taken (0 for the
// initial configuration), Leaders the protocol's leader count there.
// Gap is the table potential Σ gapWeight − gapTarget (0 exactly at
// stability) and present only for table-compiled protocols.
type TrajectorySample struct {
	Trial   int   `json:"trial"`
	Step    int64 `json:"step"`
	Leaders int   `json:"leaders"`
	Gap     *int  `json:"gap,omitempty"`
	// Final marks the trial's terminal sample, recorded after the run
	// ends; its Step and Leaders match the trial's Result.
	Final bool `json:"final,omitempty"`
}

// leaderCounter is the structural slice of sim.Protocol the trajectory
// needs; declared here so telemetry does not import sim (sim imports
// telemetry).
type leaderCounter interface {
	Leaders() int
}

// tabular is the structural slice of sim.Tabular used to compute the
// gap potential at sample time.
type tabular interface {
	Table() *core.TransitionTable
	TableStates() []uint8
}

// DefaultTrajectorySamples caps a trial's curve length unless the
// caller chooses otherwise.
const DefaultTrajectorySamples = 512

// Trajectory records one trial's convergence curve. It implements
// sim.Observer; wire it as Options.Observer with ObserveEvery set to
// the sampling interval (one graph size n per sample ≈ one unit of
// parallel time is the natural choice). sim.ExecPlan.Run binds it to the
// trial's protocol after Reset (ProtocolBinder) and finalizes it once
// the run ends (RunFinisher), so each sample reads the leader counters
// the engine has already stored back for observer callbacks.
//
// The curve is capped at max samples by stride doubling: when the
// buffer fills, every other sample is dropped and the sampling stride
// doubles, so long runs keep an evenly thinned curve instead of only
// its first max points. Deterministic: the kept set depends only on the
// observation count, never on time or randomness.
type Trajectory struct {
	trial   int
	max     int
	stride  int64
	seen    int64
	leaders leaderCounter
	tab     tabular
	samples []TrajectorySample
}

// NewTrajectory returns a curve recorder for the given trial index.
// maxSamples <= 0 means DefaultTrajectorySamples.
func NewTrajectory(trial, maxSamples int) *Trajectory {
	if maxSamples <= 0 {
		maxSamples = DefaultTrajectorySamples
	}
	if maxSamples < 2 {
		maxSamples = 2
	}
	return &Trajectory{trial: trial, max: maxSamples, stride: 1}
}

// Bind attaches the trial's protocol instance. p may be any value; only
// the Leaders / Table+TableStates methods the curve needs are looked
// up, so telemetry stays decoupled from sim's interfaces. Bind also
// records the step-0 initial configuration; call it after the
// protocol's Reset.
func (tr *Trajectory) Bind(p any) {
	tr.leaders, _ = p.(leaderCounter)
	if tb, ok := p.(tabular); ok && tb.Table() != nil {
		tr.tab = tb
	}
	if len(tr.samples) == 0 {
		tr.record(0, false)
	}
}

// Observe implements the observer hook: sample the current leader
// count (and gap, when table-compiled) at step t.
func (tr *Trajectory) Observe(t int64) {
	idx := tr.seen
	tr.seen++
	if tr.stride > 1 && idx%tr.stride != 0 {
		return
	}
	tr.record(t, false)
	if len(tr.samples) >= tr.max {
		tr.decimate()
	}
}

// Finish records the trial's terminal sample at the run's final step
// count; sim.ExecPlan.Run calls it once the run ends. If the last
// periodic sample already landed on the terminal step it is promoted in
// place, so the curve ends with exactly one Final point.
func (tr *Trajectory) Finish(steps int64) {
	if n := len(tr.samples); n > 0 && tr.samples[n-1].Step == steps {
		tr.samples[n-1].Final = true
		return
	}
	tr.record(steps, true)
}

func (tr *Trajectory) record(step int64, final bool) {
	s := TrajectorySample{Trial: tr.trial, Step: step, Final: final}
	if tr.leaders != nil {
		s.Leaders = tr.leaders.Leaders()
	}
	if tr.tab != nil {
		_, gap := tr.tab.Table().Counters(tr.tab.TableStates())
		s.Gap = &gap
	}
	tr.samples = append(tr.samples, s)
}

// decimate halves the curve, keeping step 0 and every other periodic
// sample, and doubles the stride so future observations thin to match.
func (tr *Trajectory) decimate() {
	kept := tr.samples[:1] // always keep the step-0 sample
	// Periodic samples sit at observation indices 0, stride, 2·stride, …;
	// keeping alternate ones leaves exactly the multiples of 2·stride.
	for i := 1; i < len(tr.samples); i += 2 {
		kept = append(kept, tr.samples[i])
	}
	tr.samples = kept
	tr.stride *= 2
}

// Samples returns the recorded curve; call after the run (and Finish)
// completes.
func (tr *Trajectory) Samples() []TrajectorySample { return tr.samples }

// TrajectoryLog serializes trial curves to JSONL through internal/jsonl,
// one sample per line. Writing curves whole, in job order, from one
// goroutine yields a byte-deterministic file for any worker count
// (timing never appears in a sample).
type TrajectoryLog struct{ lines *jsonl.Writer }

// NewTrajectoryLog returns a log writing JSONL to w.
func NewTrajectoryLog(w io.Writer) *TrajectoryLog {
	return &TrajectoryLog{lines: jsonl.NewWriter(w)}
}

// OpenTrajectoryLog creates (truncating) a trajectory file at path.
func OpenTrajectoryLog(path string) (*TrajectoryLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: opening trajectory log: %w", err)
	}
	return NewTrajectoryLog(f), nil
}

// WriteTrial appends one trial's samples. A nil log discards them; a
// failed write is reported by Close.
func (l *TrajectoryLog) WriteTrial(samples []TrajectorySample) {
	if l == nil {
		return
	}
	for i := range samples {
		if l.lines.Write(&samples[i]) != nil {
			return
		}
	}
}

// Close closes the underlying writer and reports the first write error.
func (l *TrajectoryLog) Close() error {
	if l == nil {
		return nil
	}
	return l.lines.Close()
}
