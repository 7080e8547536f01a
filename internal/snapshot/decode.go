// Snapshot decoding: parse and bounds-check the container, verify
// every payload checksum, then revive the graph. On a little-endian
// host with an 8-aligned buffer the bulk slabs (CSR arrays and packed
// edges) are aliased straight out of the read buffer — zero copies,
// zero per-element work; otherwise the same bytes are decoded element
// by element. Both paths feed identical values through identical
// validation.
//
// Validation is tiered by cost. Decode always checks the container
// (magic, size, section bounds and alignment, CRC-32C of every
// payload) and the O(n) structural invariants (meta consistency with n
// and 2m within 2³¹−1, section lengths, offsets monotone with correct
// endpoints, connectivity flag). The O(m) content checks — adjacency
// entries in range and exactly consistent with the packed edge list —
// live in Verify, which the encoder runs once after writing (WriteFile
// callers) rather than every loader on every start: on a
// memory-bandwidth-bound machine each O(m) scan costs as much as the
// checksum pass itself, and the checksum already pins the bytes to
// what the encoder verified. A crafted file with recomputed checksums
// but inconsistent content is therefore accepted by Decode and caught
// by Verify; in between, Go bounds checks turn any out-of-range
// adjacency into an index panic, never memory corruption.

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
	// ErrVersion marks a container of a different snapshot version,
	// or one carrying a retired section kind.
	ErrVersion = errors.New("unsupported snapshot version")
	// ErrCorrupt marks a structurally damaged container: truncated,
	// failing a checksum, out-of-bounds sections, invalid CSR.
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
// 8-aligned buffer the big slabs alias data directly — the caller must
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
			return 0, 0, nil, fmt.Errorf("snapshot: magic %q (this build reads %q): %w", magic, Magic, ErrVersion)
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
		return nil, corruptf("connectivity flag not set (v1 stores connected graphs only)")
	}
	var meta, offs, adjs, edgs *section
	for i := range sections {
		sec := &sections[i]
		grab := func(slot **section) error {
			if *slot != nil {
				return corruptf("duplicate %s section", kindName(sec.kind))
			}
			*slot = sec
			return nil
		}
		switch sec.kind {
		case kindMeta:
			err = grab(&meta)
		case kindOffsets:
			err = grab(&offs)
		case kindAdj:
			err = grab(&adjs)
		case kindEdges:
			err = grab(&edgs)
		case kindWeights, kindTable:
			err = fmt.Errorf("snapshot: retired %s section (kind %d); rebuild the file with cmd/preprocess: %w",
				kindName(sec.kind), sec.kind, ErrVersion)
		default:
			err = corruptf("unknown section kind %d", sec.kind)
		}
		if err != nil {
			return nil, err
		}
	}
	if meta == nil || offs == nil || adjs == nil || edgs == nil {
		return nil, corruptf("missing required section (need meta, csr-offsets, csr-adjacency, packed-edges)")
	}

	n, m, name, source, err := decodeMeta(payload(data, meta))
	if err != nil {
		return nil, err
	}
	if offs.length != uint64(4*(n+1)) {
		return nil, corruptf("csr-offsets section is %d bytes for n=%d, want %d", offs.length, n, 4*(n+1))
	}
	if adjs.length != uint64(4*2*m) {
		return nil, corruptf("csr-adjacency section is %d bytes for m=%d, want %d", adjs.length, m, 4*2*m)
	}
	if edgs.length != uint64(8*m) {
		return nil, corruptf("packed-edges section is %d bytes for m=%d, want %d", edgs.length, m, 8*m)
	}
	offsets := int32Slab(payload(data, offs), zeroCopy)
	adj := int32Slab(payload(data, adjs), zeroCopy)
	edges := int64Slab(payload(data, edgs), zeroCopy)
	if diam < -1 || diam > math.MaxInt32 {
		return nil, corruptf("known diameter %d out of range", diam)
	}
	g, err := graph.NewDenseFromCSRTrusted(n, offsets, adj, edges, name, int(diam))
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

// int32Slab interprets a little-endian u32 slab. The zero-copy alias
// reuses the buffer's memory; int32 and uint32 share representation,
// and out-of-range bit patterns surface as negative values the CSR
// validation rejects.
func int32Slab(p []byte, zeroCopy bool) []int32 {
	count := len(p) / 4
	if count == 0 {
		return nil
	}
	if zeroCopy {
		return unsafe.Slice((*int32)(unsafe.Pointer(&p[0])), count)
	}
	out := make([]int32, count)
	fillInt32(out, p)
	return out
}

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

// The portable fill loops run once per element over slabs that reach
// tens of millions of entries on big-endian or misaligned hosts, so
// they are held to the same no-allocation discipline as the simulation
// kernels.

//popcheck:kernel
func fillInt32(dst []int32, p []byte) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
}

//popcheck:kernel
func fillInt64(dst []int64, p []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// Verify runs the deep O(m) content checks Decode defers (see the
// package comment on tiered validation): the CSR triple must be
// internally consistent — adjacency in range, packed edges strictly
// ascending, adjacency exactly the cursor fill of the edge list.
// WriteFile runs this before renaming the snapshot into place, so a
// .popg that exists was deep-verified at encode time; loaders that want to re-establish that guarantee for a
// file of unknown provenance (graphinfo -verify) call it explicitly.
func Verify(s *Snapshot) error {
	if err := s.Graph.VerifyCSR(); err != nil {
		return fmt.Errorf("snapshot: %v: %w", err, ErrCorrupt)
	}
	return nil
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
