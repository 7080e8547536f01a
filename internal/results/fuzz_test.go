package results

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"popgraph/internal/jsonl"
)

// forEachAllocSlack is the allocation FuzzForEach forgives beyond 16
// times the input's size: the scanner's first 64 KiB buffer, plus
// whatever the runtime allocates meanwhile. The multiple covers the
// scanner's doubling buffer, the decoded strings and the decoder's
// rewrite of invalid UTF-8 into three-byte replacement runes. A reader
// that sized its buffer by the line cap, or by anything but the bytes it
// has read, would overshoot it.
const forEachAllocSlack = 256 << 10

// FuzzForEach feeds arbitrary bytes to ForEach, the results-log reader
// behind shard resume, merge and aggregation. Every input must come back
// as records or an error: never a panic, never an allocation beyond a
// fixed multiple of its size. An accepted stream must re-encode through
// the codec into records equal to those it decoded, unless a re-encoded
// line would exceed jsonl.MaxLine, which the codec refuses to write. The
// seed corpus in testdata/fuzz/FuzzForEach holds a valid record line,
// blank lines around one, a torn final line, invalid UTF-8 inside a
// string and a JSON array; f.Add adds a line over jsonl.MaxLine and one
// under it that HTML escaping lengthens past it, built here rather than
// committed.
func FuzzForEach(f *testing.F) {
	f.Add([]byte(`{"graph":"` + strings.Repeat("x", jsonl.MaxLine) + `"}` + "\n"))
	f.Add([]byte(`{"graph":"` + strings.Repeat("<", jsonl.MaxLine/2) + `"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ForEach(bytes.NewReader(data), func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(16*len(data)+forEachAllocSlack) {
			t.Fatalf("ForEach of %d bytes allocated %d bytes", len(data), grown)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs); errors.Is(err, jsonl.ErrTooLong) {
			// Escaping can lengthen a line that fit the cap as read; the
			// codec refuses to write a line it could not read back.
			return
		} else if err != nil {
			t.Fatalf("re-encoding %d accepted records: %v", len(recs), err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading re-encoded records: %v", err)
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", back, recs)
		}
	})
}
