// Package snapshot implements HORNET's deterministic checkpoint format:
// a versioned, checksummed binary container of named sections, each a
// flat little-endian encoding of one subsystem's state (engine clock,
// per-tile RNG streams, NoC buffers and allocation state, statistics,
// frontends). A snapshot is guarded by the config hash of the system
// that produced it, so state can only be restored into a structurally
// compatible simulation; the round-trip contract is that
// run→snapshot→restore→run is byte-identical to an uninterrupted run.
//
// The container layout (all integers little-endian):
//
//	magic   "HSNAP1\n"            (7 bytes)
//	version uint16                 (FormatVersion)
//	hash    string                 (config-hash guard)
//	clock   uint64                 (next cycle to simulate)
//	nsec    uint32                 section count
//	         nsec × { name string, size uint32, payload bytes }
//	crc     uint32                 IEEE CRC-32 of everything above
//
// Sections are written and read by name; producers append them in a
// deterministic order so identical simulator states encode to identical
// bytes (snapshots themselves are content-comparable).
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// FormatVersion is the current snapshot layout version. Bump whenever
// any section's encoding changes; DecodeBytes rejects other versions with a
// *VersionError.
//
// Version history:
//
//	1: initial layout (synthetic/trace frontends, payload-free flits)
//	2: flits and packets carry codec-tagged payloads (mem.Message,
//	   []byte); mem/mips/trace-MC frontend sections; manifest section
const FormatVersion = 2

var magic = []byte("HSNAP1\n")

// maxSectionBytes bounds a single section (and the header strings) so a
// corrupt length prefix cannot drive a multi-gigabyte allocation.
const maxSectionBytes = 1 << 30

// Snapshot is a decoded (or under-construction) checkpoint.
type Snapshot struct {
	// ConfigHash guards restores: it must equal the restoring system's
	// own hash (sweep.ConfigHash over its identifying configuration).
	ConfigHash string
	// Clock is the next cycle the suspended simulation would execute.
	Clock uint64

	sections []section
	// payloads counts flit/packet payloads encoded into this snapshot
	// (via EncodePayload); producers surface it in inspection manifests.
	payloads int
}

// Payloads reports how many typed payloads were encoded into this
// (under-construction) snapshot. Zero for decoded snapshots — the count
// is a producer-side statistic, carried explicitly (e.g. in a manifest
// section) when it must survive the round trip.
func (s *Snapshot) Payloads() int { return s.payloads }

type section struct {
	name    string
	payload []byte
}

// New starts an empty snapshot for the given config hash and clock.
func New(configHash string, clock uint64) *Snapshot {
	return &Snapshot{ConfigHash: configHash, Clock: clock}
}

// Section appends a named section and returns its Writer. Sections are
// encoded in append order; callers must use a deterministic order.
func (s *Snapshot) Section(name string) *Writer {
	s.sections = append(s.sections, section{name: name})
	return &Writer{snap: s, idx: len(s.sections) - 1}
}

// Open returns a Reader over the named section's payload, or a
// *CorruptError if the snapshot has no such section (a snapshot from a
// system with different frontends attached).
func (s *Snapshot) Open(name string) (*Reader, error) {
	for _, sec := range s.sections {
		if sec.name == name {
			return &Reader{buf: sec.payload, name: name}, nil
		}
	}
	return nil, corruptf("missing section %q", name)
}

// Has reports whether the named section is present.
func (s *Snapshot) Has(name string) bool {
	for _, sec := range s.sections {
		if sec.name == name {
			return true
		}
	}
	return false
}

// SectionPayload returns a copy of the named section's raw bytes, for
// inspection tools and corruption-injection tests.
func (s *Snapshot) SectionPayload(name string) ([]byte, bool) {
	for _, sec := range s.sections {
		if sec.name == name {
			return append([]byte(nil), sec.payload...), true
		}
	}
	return nil, false
}

// SetSection replaces the named section's payload, appending a new
// section if none exists. It exists for tests that inject section-level
// corruption past the container checksum (re-encoding recomputes the
// CRC) and for tools that rewrite snapshots; simulator save paths use
// Section writers instead.
func (s *Snapshot) SetSection(name string, payload []byte) {
	for i := range s.sections {
		if s.sections[i].name == name {
			s.sections[i].payload = append([]byte(nil), payload...)
			return
		}
	}
	s.sections = append(s.sections, section{name: name, payload: append([]byte(nil), payload...)})
}

// Encode writes the container to w.
func (s *Snapshot) Encode(w io.Writer) error {
	var buf bytes.Buffer
	buf.Write(magic)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], FormatVersion)
	buf.Write(u16[:])
	putString(&buf, s.ConfigHash)
	putUint64(&buf, s.Clock)
	putUint32(&buf, uint32(len(s.sections)))
	for _, sec := range s.sections {
		putString(&buf, sec.name)
		putUint32(&buf, uint32(len(sec.payload)))
		buf.Write(sec.payload)
	}
	crc := crc32.ChecksumIEEE(buf.Bytes())
	putUint32(&buf, crc)
	_, err := w.Write(buf.Bytes())
	return err
}

// Bytes encodes the container into memory.
func (s *Snapshot) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Verify checks the container envelope — magic, format version and the
// trailing CRC — without decoding or materializing sections. It is the
// cheap admission check for snapshot blobs arriving over a network
// transport (worker checkpoint uploads): a blob that passes Verify will
// also pass DecodeBytes's envelope checks, so corruption is rejected at
// the transport boundary instead of being discovered mid-resume.
func Verify(b []byte) error {
	if len(b) < len(magic)+2+4 {
		return corruptf("truncated: %d bytes", len(b))
	}
	if !bytes.Equal(b[:len(magic)], magic) {
		return corruptf("bad magic %q", b[:len(magic)])
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return corruptf("checksum mismatch: stored %08x, computed %08x", got, want)
	}
	if version := binary.LittleEndian.Uint16(b[len(magic):]); version != FormatVersion {
		return &VersionError{Got: version, Want: FormatVersion}
	}
	return nil
}

// DecodeBytes parses and verifies an in-memory container.
func DecodeBytes(b []byte) (*Snapshot, error) {
	if len(b) < len(magic)+2+4 {
		return nil, corruptf("truncated: %d bytes", len(b))
	}
	if !bytes.Equal(b[:len(magic)], magic) {
		return nil, corruptf("bad magic %q", b[:len(magic)])
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, corruptf("checksum mismatch: stored %08x, computed %08x", got, want)
	}
	rd := &Reader{buf: body[len(magic):], name: "header"}
	version := rd.Uint16()
	if version != FormatVersion {
		return nil, &VersionError{Got: version, Want: FormatVersion}
	}
	s := &Snapshot{}
	s.ConfigHash = rd.String()
	s.Clock = rd.Uint64()
	n := int(rd.Uint32())
	for i := 0; i < n && rd.err == nil; i++ {
		name := rd.String()
		size := int(rd.Uint32())
		if size < 0 || size > maxSectionBytes {
			return nil, corruptf("section %q claims %d bytes", name, size)
		}
		payload := rd.bytes(size)
		s.sections = append(s.sections, section{name: name, payload: payload})
	}
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.Len() != 0 {
		return nil, corruptf("%d trailing bytes after last section", rd.Len())
	}
	return s, nil
}

// CheckConfigHash verifies the restore guard against the restoring
// system's hash, returning a *MismatchError on divergence.
func (s *Snapshot) CheckConfigHash(want string) error {
	if s.ConfigHash != want {
		return &MismatchError{Field: "config_hash", Got: s.ConfigHash, Want: want}
	}
	return nil
}

// ReadFile loads and verifies a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(b)
}

// Describe renders a human-readable inspection of the container:
// version, guard hash, clock, and every section with its size. Used by
// the CLI `snapshot <file>` subcommands.
func (s *Snapshot) Describe() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "format version: %d\n", FormatVersion)
	fmt.Fprintf(&buf, "config hash:    %s\n", s.ConfigHash)
	fmt.Fprintf(&buf, "clock:          %d\n", s.Clock)
	total := 0
	for _, sec := range s.sections {
		total += len(sec.payload)
	}
	fmt.Fprintf(&buf, "sections:       %d (%d bytes)\n", len(s.sections), total)
	ordered := append([]section(nil), s.sections...)
	sort.SliceStable(ordered, func(i, j int) bool { return len(ordered[i].payload) > len(ordered[j].payload) })
	for _, sec := range ordered {
		fmt.Fprintf(&buf, "  %-12s %d bytes\n", sec.name, len(sec.payload))
	}
	return buf.String()
}
