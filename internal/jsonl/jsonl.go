// Package jsonl is the JSON Lines codec behind every line stream the
// repository writes or reads: results logs and shard records files
// (internal/results, internal/shard), the run journal and the trajectory
// files (internal/telemetry). One value is one line, encoded by
// encoding/json with its default settings, so the bytes of each stream
// are fixed by the Go types alone.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxLine caps the length of one line, newline included. The reader
// refuses longer lines, so the writer refuses to write them.
const MaxLine = 1 << 20

// ErrTooLong is the writer's error for a value whose line would exceed
// MaxLine.
var ErrTooLong = errors.New("jsonl: line longer than MaxLine")

// Writer encodes values as JSON Lines. Each value reaches the underlying
// writer in exactly one Write call, so a stream handed straight to a file
// loses at most the line being written when the process dies. Safe for
// concurrent use. The first error is latched: later writes are dropped,
// and Write and Close report it.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer
	buf bytes.Buffer
	enc *json.Encoder // encodes into buf
	err error
}

// NewWriter returns a writer encoding to w. When w is an io.Closer, Close
// closes it.
func NewWriter(w io.Writer) *Writer {
	l := &Writer{w: w}
	l.c, _ = w.(io.Closer)
	l.enc = json.NewEncoder(&l.buf)
	return l
}

// Write appends v as one line and returns the writer's first error.
func (l *Writer) Write(v any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.buf.Reset()
	if l.err = l.enc.Encode(v); l.err != nil {
		return l.err
	}
	if n := l.buf.Len(); n > MaxLine {
		l.err = fmt.Errorf("%w: %d bytes", ErrTooLong, n)
		return l.err
	}
	_, l.err = l.w.Write(l.buf.Bytes())
	return l.err
}

// Close closes the underlying writer, once, when it is an io.Closer, and
// returns the first error the writer hit.
func (l *Writer) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.c != nil {
		if err := l.c.Close(); l.err == nil {
			l.err = err
		}
		l.c = nil
	}
	return l.err
}

// ForEach decodes r line by line into values of type T and calls fn with
// each. Blank lines are skipped. A malformed line, or one longer than
// MaxLine, stops the scan with an error naming its line number; an error
// from fn stops it and is returned as is.
func ForEach[T any](r io.Reader, fn func(T) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLine)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(text, &v); err != nil {
			return fmt.Errorf("jsonl: line %d: %w", line, err)
		}
		if err := fn(v); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("jsonl: line %d: %w", line+1, err)
	}
	return nil
}

// ReadAll decodes every line of r, as ForEach does, and returns the
// values in stream order.
func ReadAll[T any](r io.Reader) ([]T, error) {
	var out []T
	err := ForEach(r, func(v T) error {
		out = append(out, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
