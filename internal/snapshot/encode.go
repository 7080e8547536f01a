// Snapshot encoding: lay out the section table, serialize the meta
// section and the packed edge slab little-endian at 8-aligned offsets,
// checksum each payload. Encoding happens once per preprocessed graph
// (cmd/preprocess), so the encoder favors clarity; the edge slab still
// takes the memcpy fast path on little-endian hosts, where the
// in-memory representation already is the wire representation.

package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"unsafe"
)

// castagnoli is the CRC-32C table shared by encode, decode and
// Inspect. Castagnoli because amd64 and arm64 compute it in hardware,
// keeping checksum verification a tiny slice of load time even for
// multi-hundred-megabyte snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the native byte order is little
// endian — the precondition for aliasing wire slabs as typed slices
// in either direction.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// bytesOf returns the raw byte view of the edge slab. Only valid as a
// wire image on little-endian hosts; callers gate on hostLittleEndian.
func bytesOf(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

// section is one section-table entry during encoding or decoding.
type section struct {
	kind   uint32
	crc    uint32
	offset uint64
	length uint64
}

// Encode serializes the snapshot. The graph must be set.
func (s *Snapshot) Encode() ([]byte, error) {
	if s.Graph == nil {
		return nil, fmt.Errorf("snapshot: encode without a graph")
	}
	g := s.Graph
	n, m := g.N(), g.M()
	edges := g.PackedEdges()
	if len(s.Source) > math.MaxUint16 {
		return nil, fmt.Errorf("snapshot: source spec %.32q... too long", s.Source)
	}
	if len(g.Name()) > math.MaxUint16 {
		return nil, fmt.Errorf("snapshot: graph name %.32q... too long", g.Name())
	}

	// Payload sizes, in canonical section order.
	lengths := []int{
		24 + len(g.Name()) + len(s.Source), // meta
		8 * m,                              // packed-edges
	}
	kinds := []uint32{kindMeta, kindEdges}

	sections := make([]section, len(kinds))
	off := headerSize + sectionEntrySize*len(kinds)
	for i, l := range lengths {
		off = align8(off)
		sections[i] = section{kind: kinds[i], offset: uint64(off), length: uint64(l)}
		off += l
	}
	total := align8(off)
	buf := make([]byte, total)

	// Payloads first, so checksums are ready when the table is written.
	si := 0
	next := func() []byte {
		p := buf[sections[si].offset : sections[si].offset+sections[si].length]
		si++
		return p
	}
	meta := next()
	binary.LittleEndian.PutUint64(meta[0:], uint64(n))
	binary.LittleEndian.PutUint64(meta[8:], uint64(m))
	binary.LittleEndian.PutUint32(meta[16:], uint32(len(g.Name())))
	binary.LittleEndian.PutUint32(meta[20:], uint32(len(s.Source)))
	copy(meta[24:], g.Name())
	copy(meta[24+len(g.Name()):], s.Source)
	putInt64s(next(), edges)
	for i := range sections {
		sections[i].crc = crc32.Checksum(buf[sections[i].offset:sections[i].offset+sections[i].length], castagnoli)
	}

	copy(buf[0:16], Magic)
	binary.LittleEndian.PutUint32(buf[16:], flagConnected)
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(sections)))
	binary.LittleEndian.PutUint64(buf[24:], uint64(total))
	binary.LittleEndian.PutUint64(buf[32:], uint64(int64(g.KnownDiameter())))
	for i, sec := range sections {
		e := buf[headerSize+sectionEntrySize*i:]
		binary.LittleEndian.PutUint32(e[0:], sec.kind)
		binary.LittleEndian.PutUint32(e[4:], sec.crc)
		binary.LittleEndian.PutUint64(e[8:], sec.offset)
		binary.LittleEndian.PutUint64(e[16:], sec.length)
	}
	return buf, nil
}

func putInt64s(p []byte, v []int64) {
	if hostLittleEndian {
		copy(p, bytesOf(v))
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(p[8*i:], uint64(x))
	}
}

// WriteFile encodes the snapshot and writes it atomically: a temporary
// file in the destination directory, fsync'd, then renamed into place,
// so readers (and the CI cache) never observe a torn snapshot.
func WriteFile(path string, s *Snapshot) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
