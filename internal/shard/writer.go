package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"popgraph/internal/results"
)

// Writer streams one shard's records to a JSONL file in plan order. The
// records file is the checkpoint: line i holds the shard's i-th planned
// cell, and every Append hands its whole line to the OS, so a killed
// process loses at most the line it was writing. The manifest is a
// header, finalized by Close after the records file is synced.
//
// Opening a writer whose manifest already exists resumes it: the
// records file's complete lines are counted and kept — a writer that was
// killed before Close leaves more of them than its manifest claims — a
// torn final line is truncated away, and Append continues after them.
// Cells are deterministic, so a kept line is exactly the line a rerun
// would write.
type Writer struct {
	out          *os.File
	manifest     Manifest
	manifestPath string // "" disables checkpointing
}

// Open creates or resumes a shard writer. base describes the shard
// (spec hash, shard/of, grid total, records path, timing mode) and must
// carry a zero Completed count; outPath is the records file the base's
// Records field names. When manifestPath is empty, checkpointing is off
// and the records file is always started fresh. The returned count is
// the number of already-completed cells to skip — 0 for a fresh run.
func Open(outPath, manifestPath string, base Manifest) (*Writer, int, error) {
	if base.Completed != 0 {
		return nil, 0, fmt.Errorf("shard: Open with a non-zero completed count")
	}
	if err := base.Validate(); err != nil {
		return nil, 0, err
	}
	w := &Writer{manifest: base, manifestPath: manifestPath}
	if manifestPath != "" {
		if prev, err := ReadManifest(manifestPath); err == nil {
			return w.resume(outPath, prev)
		} else if !os.IsNotExist(err) {
			return nil, 0, err
		}
	}
	out, err := os.Create(outPath)
	if err != nil {
		return nil, 0, err
	}
	w.out = out
	if manifestPath != "" {
		// Write the header up front so a kill before Close still leaves a
		// resumable checkpoint.
		if err := WriteManifest(manifestPath, w.manifest); err != nil {
			out.Close()
			return nil, 0, err
		}
	}
	return w, 0, nil
}

// resume validates the previous checkpoint against the requested run and
// reopens the records file after its last complete line.
func (w *Writer) resume(outPath string, prev Manifest) (*Writer, int, error) {
	base := w.manifest
	switch {
	case prev.SpecHash != base.SpecHash:
		return nil, 0, fmt.Errorf("shard: checkpoint belongs to a different sweep (spec hash %.12s… vs %.12s…)",
			prev.SpecHash, base.SpecHash)
	case prev.Shard != base.Shard || prev.Of != base.Of:
		return nil, 0, fmt.Errorf("shard: checkpoint is for shard %d/%d, this run is %d/%d",
			prev.Shard, prev.Of, base.Shard, base.Of)
	case prev.TotalCells != base.TotalCells:
		return nil, 0, fmt.Errorf("shard: checkpoint grid has %d cells, this run %d",
			prev.TotalCells, base.TotalCells)
	case prev.NoTiming != base.NoTiming:
		return nil, 0, fmt.Errorf("shard: checkpoint no_timing=%v, this run %v (mixing would break byte-identity)",
			prev.NoTiming, base.NoTiming)
	case prev.Records != base.Records:
		return nil, 0, fmt.Errorf("shard: checkpoint records file %q, this run writes %q",
			prev.Records, base.Records)
	}
	out, err := os.OpenFile(outPath, os.O_RDWR, 0)
	if err != nil {
		return nil, 0, err
	}
	lines, end, err := completeLines(out)
	switch {
	case err != nil:
	case lines < prev.Completed:
		err = fmt.Errorf("records file has %d complete lines, checkpoint claims %d", lines, prev.Completed)
	case lines > prev.PlanLen():
		err = fmt.Errorf("records file has %d complete lines, the shard plan only %d cells", lines, prev.PlanLen())
	default:
		if err = out.Truncate(end); err == nil {
			_, err = out.Seek(end, io.SeekStart)
		}
	}
	if err != nil {
		out.Close()
		return nil, 0, fmt.Errorf("shard: resuming %s: %w", outPath, err)
	}
	w.out = out
	w.manifest = prev
	w.manifest.Completed = lines
	return w, lines, nil
}

// completeLines reads f to its end and returns the number of
// newline-terminated lines and the byte offset just past the last one.
func completeLines(f *os.File) (int, int64, error) {
	buf := make([]byte, 64*1024)
	lines, off, end := 0, int64(0), int64(0)
	for {
		k, err := f.Read(buf)
		lines += bytes.Count(buf[:k], []byte{'\n'})
		if i := bytes.LastIndexByte(buf[:k], '\n'); i >= 0 {
			end = off + int64(i) + 1
		}
		off += int64(k)
		if err == io.EOF {
			return lines, end, nil
		}
		if err != nil {
			return 0, 0, err
		}
	}
}

// Append writes one cell's record line in a single write and counts it.
// Cells must arrive in plan order: the shard's next cell is
// Shard + Completed·Of.
func (w *Writer) Append(global int, rec results.Record) error {
	if next := w.manifest.Shard + w.manifest.Completed*w.manifest.Of; global != next {
		return fmt.Errorf("shard: cell %d appended where the shard's next cell is %d", global, next)
	}
	if w.manifest.NoTiming {
		rec.ElapsedNs, rec.QueueWaitNs = 0, 0
	}
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if _, err := w.out.Write(line); err != nil {
		return err
	}
	w.manifest.Completed++
	return nil
}

// Done returns the number of cells written so far (including any
// resumed prefix).
func (w *Writer) Done() int { return w.manifest.Completed }

// Close syncs and closes the records file, and only then writes the
// manifest with the final count: a manifest that claims N cells means N
// lines that are durable on disk.
func (w *Writer) Close() error {
	if w.manifestPath == "" {
		return w.out.Close()
	}
	err := w.out.Sync()
	if cerr := w.out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return WriteManifest(w.manifestPath, w.manifest)
}

// encodeRecord renders one record exactly as results.Write does — same
// encoder, one line, trailing newline — so shard files concatenate into
// a byte-identical solo log.
func encodeRecord(rec results.Record) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(&rec); err != nil {
		return nil, fmt.Errorf("shard: encoding record: %w", err)
	}
	return buf.Bytes(), nil
}
