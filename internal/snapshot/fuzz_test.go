package snapshot

import (
	"errors"
	"runtime"
	"testing"
)

// decodeAllocSlack is the allocation FuzzDecode forgives beyond the
// input's own size: the small fixed structures of a decoded snapshot,
// plus whatever the runtime allocates meanwhile. A decoder that sized
// an allocation by a length the input claims, rather than by the bytes
// it has, overshoots this by orders of magnitude.
const decodeAllocSlack = 1 << 20

// FuzzDecode feeds arbitrary bytes to Decode. Every input must come
// back as a snapshot or an error wrapping one of the decode sentinels:
// never a panic, and never an allocation sized by a claimed length.
// A snapshot that decodes must also survive the deep Verify pass. The
// seed corpus in testdata/fuzz/FuzzDecode holds a valid graph-only
// cycle:8 file and, as retired-weights-kind, an older cycle:8 file that
// carries one stored weight set (a retired section kind). The other
// five seeds are damaged copies of that older file: truncated, a huge
// section count, a bad checksum, an unknown section kind and the
// retired transition-table kind.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Decode(data)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(4*len(data)+decodeAllocSlack) {
			t.Fatalf("Decode of %d bytes allocated %d bytes", len(data), grown)
		}
		if err != nil {
			if !errors.Is(err, ErrNotSnapshot) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v wraps no decode sentinel", err)
			}
			return
		}
		if s == nil || s.Graph == nil {
			t.Fatalf("Decode returned no error and no graph")
		}
		_ = Verify(s)
	})
}
