// Snapshot decoding: parse and bounds-check the container, verify
// every payload checksum, then rebuild the graph from its packed edge
// list. On a little-endian host with an 8-aligned buffer the edge slab
// is aliased straight out of the read buffer; otherwise the same bytes
// are decoded element by element. Both paths feed identical values
// through identical validation.
//
// Every load is the full check. Decode verifies the container (magic,
// size, section bounds and alignment, CRC-32C of every payload), the
// meta section (n and 2m within 2³¹−1, section lengths consistent with
// m) and the connectivity flag; graph.NewDenseFromPacked then checks
// the edge list itself (strictly ascending, 0 <= u < w < n, at most
// m+1 nodes, stored diameter in range) in one O(m) pass and derives
// the CSR arrays with the generators' own fill. A file whose edges were
// edited and whose checksums were recomputed is therefore an
// ErrCorrupt error, never a graph that panics later.

package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"unsafe"

	"popgraph/internal/graph"
)

// Decode errors. Every decode failure wraps one of these, so callers
// can distinguish "not ours" from "ours but damaged" from "ours but
// newer".
var (
	// ErrNotSnapshot marks data that does not start with the snapshot
	// magic at all.
	ErrNotSnapshot = errors.New("not a popgraph snapshot")
	// ErrVersion marks a container of a different snapshot version.
	ErrVersion = errors.New("unsupported snapshot version")
	// ErrCorrupt marks a structurally damaged container: truncated,
	// failing a checksum, out-of-bounds sections, an invalid edge list.
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

// parseContainer validates the header and section table: magic,
// version, size, section bounds, alignment and checksums. It returns
// the section entries; payload interpretation is the caller's.
func parseContainer(data []byte) (flags uint32, diam int64, sections []section, err error) {
	if len(data) < headerSize {
		if len(data) >= len(magicPrefix) && string(data[:len(magicPrefix)]) == magicPrefix {
			return 0, 0, nil, corruptf("truncated header (%d bytes)", len(data))
		}
		return 0, 0, nil, fmt.Errorf("snapshot: %w", ErrNotSnapshot)
	}
	if magic := string(data[0:16]); magic != Magic {
		if string(data[:len(magicPrefix)]) == magicPrefix {
			return 0, 0, nil, fmt.Errorf("snapshot: magic %q (this build reads %q); rebuild the file with cmd/preprocess: %w",
				magic, Magic, ErrVersion)
		}
		return 0, 0, nil, fmt.Errorf("snapshot: %w", ErrNotSnapshot)
	}
	flags = binary.LittleEndian.Uint32(data[16:])
	count := binary.LittleEndian.Uint32(data[20:])
	size := binary.LittleEndian.Uint64(data[24:])
	diam = int64(binary.LittleEndian.Uint64(data[32:]))
	if size != uint64(len(data)) {
		return 0, 0, nil, corruptf("header claims %d bytes, have %d", size, len(data))
	}
	if count > maxSections {
		return 0, 0, nil, corruptf("%d sections exceed the %d-section cap", count, maxSections)
	}
	tableEnd := headerSize + sectionEntrySize*int(count)
	if tableEnd > len(data) {
		return 0, 0, nil, corruptf("section table (%d entries) overruns the file", count)
	}
	sections = make([]section, count)
	for i := range sections {
		e := data[headerSize+sectionEntrySize*i:]
		sec := section{
			kind:   binary.LittleEndian.Uint32(e[0:]),
			crc:    binary.LittleEndian.Uint32(e[4:]),
			offset: binary.LittleEndian.Uint64(e[8:]),
			length: binary.LittleEndian.Uint64(e[16:]),
		}
		if sec.offset%8 != 0 {
			return 0, 0, nil, corruptf("%s section at unaligned offset %d", kindName(sec.kind), sec.offset)
		}
		if sec.offset < uint64(tableEnd) || sec.offset > uint64(len(data)) ||
			sec.length > uint64(len(data))-sec.offset {
			return 0, 0, nil, corruptf("%s section [%d, +%d) out of bounds (file size %d)",
				kindName(sec.kind), sec.offset, sec.length, len(data))
		}
		if got := crc32.Checksum(data[sec.offset:sec.offset+sec.length], castagnoli); got != sec.crc {
			return 0, 0, nil, corruptf("%s section checksum %08x, want %08x", kindName(sec.kind), got, sec.crc)
		}
		sections[i] = sec
	}
	return flags, diam, sections, nil
}

func decode(data []byte, zeroCopy bool) (*Snapshot, error) {
	flags, diam, sections, err := parseContainer(data)
	if err != nil {
		return nil, err
	}
	if flags&flagConnected == 0 {
		return nil, corruptf("connectivity flag not set (snapshots store connected graphs only)")
	}
	var meta, edgs *section
	for i := range sections {
		sec := &sections[i]
		var slot **section
		switch sec.kind {
		case kindMeta:
			slot = &meta
		case kindEdges:
			slot = &edgs
		default:
			return nil, corruptf("unknown section kind %d", sec.kind)
		}
		if *slot != nil {
			return nil, corruptf("duplicate %s section", kindName(sec.kind))
		}
		*slot = sec
	}
	if meta == nil || edgs == nil {
		return nil, corruptf("missing required section (need meta, packed-edges)")
	}

	n, m, name, source, err := decodeMeta(payload(data, meta))
	if err != nil {
		return nil, err
	}
	if edgs.length != uint64(8*m) {
		return nil, corruptf("packed-edges section is %d bytes for m=%d, want %d", edgs.length, m, 8*m)
	}
	if diam < -1 || diam > math.MaxInt32 {
		return nil, corruptf("known diameter %d out of range", diam)
	}
	g, err := graph.NewDenseFromPacked(n, int64Slab(payload(data, edgs), zeroCopy), name, int(diam))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %v: %w", err, ErrCorrupt)
	}
	return &Snapshot{Graph: g, Source: source}, nil
}

func payload(data []byte, sec *section) []byte {
	return data[sec.offset : sec.offset+sec.length]
}

func decodeMeta(p []byte) (n, m int, name, source string, err error) {
	if len(p) < 24 {
		return 0, 0, "", "", corruptf("meta section truncated (%d bytes)", len(p))
	}
	n64 := binary.LittleEndian.Uint64(p[0:])
	m64 := binary.LittleEndian.Uint64(p[8:])
	nameLen := int(binary.LittleEndian.Uint32(p[16:]))
	sourceLen := int(binary.LittleEndian.Uint32(p[20:]))
	if n64 == 0 || n64 > math.MaxInt32 || m64 > math.MaxInt32 {
		return 0, 0, "", "", corruptf("meta claims n=%d, m=%d", n64, m64)
	}
	if 2*m64 > math.MaxInt32 {
		return 0, 0, "", "", corruptf("meta claims 2m=%d adjacency entries, over the 2³¹−1 limit of int32 CSR offsets", 2*m64)
	}
	if nameLen > math.MaxUint16 || sourceLen > math.MaxUint16 || 24+nameLen+sourceLen != len(p) {
		return 0, 0, "", "", corruptf("meta string lengths (%d, %d) disagree with the %d-byte section",
			nameLen, sourceLen, len(p))
	}
	name = string(p[24 : 24+nameLen])
	source = string(p[24+nameLen:])
	return int(n64), int(m64), name, source, nil
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

// SectionInfo is one section-table row as Inspect reports it.
type SectionInfo struct {
	Kind     string
	Offset   uint64
	Length   uint64
	Checksum uint32
	// Name is the graph name for meta, empty otherwise.
	Name string
}

// Info is the container-level summary Inspect returns: everything
// cmd/graphinfo prints about a .popg file without reviving the graph.
type Info struct {
	Magic     string
	Connected bool
	N, M      int
	GraphName string
	Source    string
	Diameter  int64
	FileSize  int64
	Sections  []SectionInfo
}

// Inspect parses and checksums the container at path and reports its
// layout. It validates the container exactly like Decode but stops
// short of rebuilding the graph, so inspecting a multi-gigabyte
// snapshot stays cheap.
func Inspect(path string) (Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	flags, diam, sections, err := parseContainer(data)
	if err != nil {
		return Info{}, fmt.Errorf("%s: %w", path, err)
	}
	info := Info{
		Magic:     Magic,
		Connected: flags&flagConnected != 0,
		Diameter:  diam,
		FileSize:  int64(len(data)),
	}
	for i := range sections {
		sec := &sections[i]
		si := SectionInfo{
			Kind:     kindName(sec.kind),
			Offset:   sec.offset,
			Length:   sec.length,
			Checksum: sec.crc,
		}
		if sec.kind == kindMeta {
			n, m, name, source, err := decodeMeta(payload(data, sec))
			if err != nil {
				return Info{}, fmt.Errorf("%s: %w", path, err)
			}
			info.N, info.M, info.GraphName, info.Source = n, m, name, source
			si.Name = name
		}
		info.Sections = append(info.Sections, si)
	}
	return info, nil
}
