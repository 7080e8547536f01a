// Snapshot encoding: write the header, the two strings and the packed
// edge slab little-endian, then checksum the file. Encoding happens
// once per preprocessed graph (cmd/preprocess), so the encoder favors
// clarity; the edge slab still takes the memcpy fast path on
// little-endian hosts, where the in-memory representation already is
// the wire representation.

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

// castagnoli is the CRC-32C table shared by encode and decode.
// Castagnoli because amd64 and arm64 compute it in hardware, keeping
// checksum verification a tiny slice of load time even for
// multi-hundred-megabyte snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the native byte order is little
// endian — the precondition for aliasing wire slabs as typed slices
// in either direction.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// checksum is the CRC-32C of data without its header checksum field.
func checksum(data []byte) uint32 {
	return crc32.Update(crc32.Checksum(data[:crcOffset], castagnoli), castagnoli, data[headerSize:])
}

// Encode serializes the snapshot. The graph must be set.
func (s *Snapshot) Encode() ([]byte, error) {
	g := s.Graph
	if g == nil {
		return nil, fmt.Errorf("snapshot: encode without a graph")
	}
	name := g.Name()
	if len(s.Source) > math.MaxUint16 {
		return nil, fmt.Errorf("snapshot: source spec %.32q... too long", s.Source)
	}
	if len(name) > math.MaxUint16 {
		return nil, fmt.Errorf("snapshot: graph name %.32q... too long", name)
	}
	edgesAt := align8(headerSize + len(name) + len(s.Source))
	buf := make([]byte, edgesAt+8*g.M())
	copy(buf, Magic)
	binary.LittleEndian.PutUint64(buf[16:], uint64(g.N()))
	binary.LittleEndian.PutUint64(buf[24:], uint64(g.M()))
	binary.LittleEndian.PutUint64(buf[32:], uint64(int64(g.KnownDiameter())))
	binary.LittleEndian.PutUint16(buf[40:], uint16(len(name)))
	binary.LittleEndian.PutUint16(buf[42:], uint16(len(s.Source)))
	copy(buf[headerSize:], name)
	copy(buf[headerSize+len(name):], s.Source)
	putInt64s(buf[edgesAt:], g.PackedEdges())
	binary.LittleEndian.PutUint32(buf[crcOffset:], checksum(buf))
	return buf, nil
}

func putInt64s(p []byte, v []int64) {
	if hostLittleEndian {
		if len(v) > 0 {
			copy(p, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v)))
		}
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
