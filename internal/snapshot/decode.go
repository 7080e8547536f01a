// Snapshot decoding: check the header, verify the checksum, then
// rebuild the graph from its packed edge list. On a little-endian host
// with an 8-aligned buffer the edge slab is aliased straight out of the
// read buffer; otherwise the same bytes are decoded element by element.
// Both paths feed identical values through identical validation.
//
// Every load is the full check. Decode verifies the header (magic, n
// and 2m within 2³¹−1, the file exactly as long as the header implies)
// and the CRC-32C over the file; graph.NewDenseFromPacked then checks
// the edge list itself (strictly ascending, 0 <= u < w < n, at most m+1
// nodes, stored diameter in range) in one O(m) pass, derives the CSR
// arrays with the generators' own fill, and checks that the graph is
// connected. A file whose edges were edited and whose checksum was
// recomputed is therefore an ErrCorrupt error, never a graph that
// panics later or a run that cannot stabilize.

package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"unsafe"

	"popgraph/internal/graph"
)

// Decode errors. Every decode failure wraps one of these, so callers
// can distinguish "not ours" from "ours but damaged" from "ours but
// another version".
var (
	// ErrNotSnapshot marks data that does not start with the snapshot
	// magic at all.
	ErrNotSnapshot = errors.New("not a popgraph snapshot")
	// ErrVersion marks a file of a different snapshot version.
	ErrVersion = errors.New("unsupported snapshot version")
	// ErrCorrupt marks a damaged file: truncated, failing the checksum,
	// a header that disagrees with the file, an invalid edge list or a
	// disconnected graph.
	ErrCorrupt = errors.New("corrupt snapshot")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("snapshot: %s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// Load reads and decodes the snapshot at path.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Decode parses a snapshot from data. On little-endian hosts with an
// 8-aligned buffer the edge slab aliases data directly — the caller must
// not mutate data afterwards; other hosts get a portable copy.
func Decode(data []byte) (*Snapshot, error) {
	zeroCopy := hostLittleEndian &&
		(len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%8 == 0)
	return decode(data, zeroCopy)
}

func decode(data []byte, zeroCopy bool) (*Snapshot, error) {
	if len(data) < len(magicPrefix) || string(data[:len(magicPrefix)]) != magicPrefix {
		return nil, fmt.Errorf("snapshot: %w", ErrNotSnapshot)
	}
	if len(data) < headerSize {
		return nil, corruptf("truncated header (%d bytes)", len(data))
	}
	if magic := string(data[:16]); magic != Magic {
		return nil, fmt.Errorf("snapshot: magic %q (this build reads %q); rebuild the file with cmd/preprocess: %w",
			magic, Magic, ErrVersion)
	}
	n := binary.LittleEndian.Uint64(data[16:])
	m := binary.LittleEndian.Uint64(data[24:])
	diam := int64(binary.LittleEndian.Uint64(data[32:]))
	nameLen := int(binary.LittleEndian.Uint16(data[40:]))
	sourceLen := int(binary.LittleEndian.Uint16(data[42:]))
	if n == 0 || n > math.MaxInt32 || m > math.MaxInt32 {
		return nil, corruptf("header claims n=%d, m=%d", n, m)
	}
	if 2*m > math.MaxInt32 {
		return nil, corruptf("header claims 2m=%d adjacency entries, over the 2³¹−1 limit of int32 CSR offsets", 2*m)
	}
	if diam < -1 || diam > math.MaxInt32 {
		return nil, corruptf("known diameter %d out of range", diam)
	}
	edgesAt := align8(headerSize + nameLen + sourceLen)
	if want := uint64(edgesAt) + 8*m; uint64(len(data)) != want {
		return nil, corruptf("file is %d bytes, its header implies %d", len(data), want)
	}
	if got, want := checksum(data), binary.LittleEndian.Uint32(data[crcOffset:]); got != want {
		return nil, corruptf("checksum %08x, want %08x", got, want)
	}
	name := string(data[headerSize : headerSize+nameLen])
	source := string(data[headerSize+nameLen : headerSize+nameLen+sourceLen])
	g, err := graph.NewDenseFromPacked(int(n), int64Slab(data[edgesAt:], zeroCopy), name, int(diam))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w: %w", err, ErrCorrupt)
	}
	return &Snapshot{Graph: g, Source: source}, nil
}

// int64Slab interprets a little-endian u64 slab. The zero-copy alias
// reuses the buffer's memory; int64 and uint64 share representation,
// and out-of-range bit patterns surface as values the edge-list
// validation rejects.
func int64Slab(p []byte, zeroCopy bool) []int64 {
	count := len(p) / 8
	if count == 0 {
		return nil
	}
	if zeroCopy {
		return unsafe.Slice((*int64)(unsafe.Pointer(&p[0])), count)
	}
	out := make([]int64, count)
	fillInt64(out, p)
	return out
}

// fillInt64 is the portable fill. It runs once per element over slabs
// that reach tens of millions of entries on big-endian or misaligned
// hosts, so it is held to the same no-allocation discipline as the
// simulation kernels.
//
//popcheck:kernel
func fillInt64(dst []int64, p []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
}
