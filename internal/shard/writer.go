package shard

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"popgraph/internal/jsonl"
	"popgraph/internal/results"
)

// Writer streams one shard's records to a JSONL file in plan order,
// through the internal/jsonl codec. With a manifest, the records file is
// the checkpoint: line i holds the shard's i-th planned cell, and every
// Append hands its whole line to the OS, so a killed process loses at
// most the line it was writing. The manifest is a header, finalized by
// Close after the records file is synced. Without a manifest nothing can
// resume the file, so the writer buffers it instead.
//
// Opening a writer whose manifest already exists resumes it: the
// records file's complete lines are counted and kept — a writer that was
// killed before Close leaves more of them than its manifest claims — a
// torn final line is truncated away, and Append continues after them.
// Cells are deterministic, so a kept line is exactly the line a rerun
// would write.
type Writer struct {
	out          *os.File
	lines        *jsonl.Writer // closes out
	manifest     Manifest
	manifestPath string // "" disables checkpointing
}

// Open creates or resumes a shard writer. base describes the shard
// (spec hash, shard/of, grid total, records path, timing mode) and must
// carry a zero Completed count; outPath is the records file the base's
// Records field names. When manifestPath is empty, checkpointing is off:
// the records file is always started fresh and written through a buffer
// that Close flushes. The returned count is the number of
// already-completed cells to skip — 0 for a fresh run.
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
	if manifestPath == "" {
		w.out, w.lines = out, jsonl.NewWriter(bufferedFile{bufio.NewWriterSize(out, 64*1024), out})
		return w, 0, nil
	}
	// Write the header up front so a kill before Close still leaves a
	// resumable checkpoint.
	if err := WriteManifest(manifestPath, w.manifest); err != nil {
		out.Close()
		return nil, 0, err
	}
	w.out, w.lines = out, jsonl.NewWriter(out)
	return w, 0, nil
}

// bufferedFile is an unsynced records file behind a write buffer; Close
// flushes the buffer and closes the file.
type bufferedFile struct {
	*bufio.Writer
	f *os.File
}

func (b bufferedFile) Close() error { return errors.Join(b.Flush(), b.f.Close()) }

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
	w.out, w.lines = out, jsonl.NewWriter(out)
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
	if err := w.lines.Write(&rec); err != nil {
		return err
	}
	w.manifest.Completed++
	return nil
}

// Close closes the records file and reports the first write error. With
// a manifest it syncs the file first, and only then writes the manifest
// with the final count: a manifest that claims N cells means N lines
// that are durable on disk.
func (w *Writer) Close() error {
	if w.manifestPath == "" {
		return w.lines.Close()
	}
	err := w.out.Sync()
	if cerr := w.lines.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return WriteManifest(w.manifestPath, w.manifest)
}
