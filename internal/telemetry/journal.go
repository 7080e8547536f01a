// The run journal: a JSONL stream of phase spans (build, run, write,
// aggregate), written as they close so a crashed run still leaves a
// usable timeline. One line per record keeps the format greppable and
// trivially concatenable across shards.

package telemetry

import (
	"fmt"
	"io"
	"os"
	"time"

	"popgraph/internal/jsonl"
)

// SpanRecord is one journal line. StartNs is the offset from the
// journal's creation (not an absolute timestamp, so journals from the
// same run diff cleanly); DurNs is the span's duration.
type SpanRecord struct {
	Span    string         `json:"span"`
	StartNs int64          `json:"start_ns"`
	DurNs   int64          `json:"dur_ns,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Journal records phase spans as JSONL through internal/jsonl. Safe for
// concurrent use; a nil *Journal is a valid disabled recorder (every
// method no-ops), so callers thread one through unconditionally:
//
//	done := journal.Span("compile", nil)
//	plan, err := sim.Compile(g, opts)
//	done()
type Journal struct {
	lines *jsonl.Writer
	epoch time.Time
}

// NewJournal returns a journal writing JSONL records to w. Span offsets
// are measured from this call.
func NewJournal(w io.Writer) *Journal {
	return &Journal{lines: jsonl.NewWriter(w), epoch: time.Now()}
}

// OpenJournal creates (truncating) a journal file at path.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: opening journal: %w", err)
	}
	return NewJournal(f), nil
}

// Span opens a phase span and returns the function that closes it; the
// record is written when the span closes. attrs may be nil. A failed
// write is reported by Close.
func (j *Journal) Span(name string, attrs map[string]any) func() {
	if j == nil {
		return func() {}
	}
	start := time.Since(j.epoch)
	return func() {
		j.lines.Write(SpanRecord{
			Span:    name,
			StartNs: start.Nanoseconds(),
			DurNs:   (time.Since(j.epoch) - start).Nanoseconds(),
			Attrs:   attrs,
		})
	}
}

// Close closes the underlying writer (when it is a Closer) and reports
// the first error the journal hit, so CLIs surface silently failed
// telemetry writes at exit.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.lines.Close()
}

// ReadJournal parses a JSONL journal, for tests and tooling.
func ReadJournal(r io.Reader) ([]SpanRecord, error) { return jsonl.ReadAll[SpanRecord](r) }
