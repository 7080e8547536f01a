// Convergence trajectories: the file format of per-trial (step, leaders,
// gap) curves, for plotting how a protocol approaches stability against
// the paper's bound rather than only recording when it got there. The
// recorder that samples them is sweep.Trajectory.

package telemetry

import (
	"fmt"
	"io"
	"os"

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
