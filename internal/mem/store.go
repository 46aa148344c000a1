package mem

import (
	"math/bits"

	"hornet/internal/noc"
)

// AddressMap fixes the line size and the interleavings: which tile is a
// line's directory/NUCA home, and which memory controller backs it.
// LineBytes is a power of two (config.Validate), so line arithmetic is
// shifts and masks.
type AddressMap struct {
	LineBytes   int
	Nodes       int
	Controllers []noc.NodeID
}

// lineShift returns log2 of a power-of-two line size.
func lineShift(lineBytes int) uint { return uint(bits.TrailingZeros32(uint32(lineBytes))) }

// LineAddr returns addr rounded down to its line base.
func (am *AddressMap) LineAddr(addr uint32) uint32 {
	return addr &^ uint32(am.LineBytes-1)
}

// LineOffset returns addr's offset within its line.
func (am *AddressMap) LineOffset(addr uint32) int {
	return int(addr & uint32(am.LineBytes-1))
}

// Home returns the directory (or NUCA home) tile for a line, interleaved
// by line index so load spreads across the die.
func (am *AddressMap) Home(addr uint32) noc.NodeID {
	return noc.NodeID((addr >> lineShift(am.LineBytes)) % uint32(am.Nodes))
}

// Controller returns the memory controller backing a line, interleaved by
// line index across the configured controllers.
func (am *AddressMap) Controller(addr uint32) noc.NodeID {
	i := (addr >> lineShift(am.LineBytes)) % uint32(len(am.Controllers))
	return am.Controllers[i]
}

// Store is a sparse line-granularity backing store. Each directory slice
// (or NUCA home slice) owns one, so no cross-thread access occurs; absent
// lines read as zero.
//
// A line, once touched, has a slot for good: its bytes (carved from a
// slab, so they never move) and, in the owning directory, its protocol
// state sit at that slot, and one probe of an open-addressed index finds
// it. Slots and index are derived state — a restore rebuilds them.
//
// Preloaded content (program and data images written before the run) is
// additionally recorded as the store's baseline: checkpointing encodes
// only the lines that diverged from it (delta/sparse), and restoring
// resets to the baseline before applying the delta, so snapshots stay
// small while a restore still reproduces the exact byte state.
type Store struct {
	lineBytes int
	shift     uint

	// cells is the index: linear probing over a power-of-two table kept at
	// most half full; lines are never removed, so there are no tombstones.
	cells []storeCell
	lines [][]byte // slot -> line bytes
	bases []uint32 // slot -> line base address
	slab  []byte   // the part of the current slab not handed out yet

	baseline map[uint32][]byte
	// baseFP memoizes baselineFingerprint: the baseline is immutable
	// once simulation starts, but save/load consult the fingerprint on
	// every checkpoint.
	baseFP      uint32
	baseFPvalid bool
}

// storeCell is one index entry: the line number plus one (zero marks an
// empty cell) and the line's slot.
type storeCell struct {
	key  uint32
	slot int32
}

// NewStore creates an empty store with the given line size.
func NewStore(lineBytes int) *Store {
	s := &Store{lineBytes: lineBytes, shift: lineShift(lineBytes), baseline: map[uint32][]byte{}}
	s.reindex(64)
	return s
}

// reindex rebuilds the index with n cells (a power of two) over the lines
// the store holds.
func (s *Store) reindex(n int) {
	s.cells = make([]storeCell, n)
	for slot, base := range s.bases {
		key := base>>s.shift + 1
		s.cells[s.probe(key)] = storeCell{key, int32(slot)}
	}
}

// probe returns the cell that holds key, or the empty one it belongs in.
func (s *Store) probe(key uint32) int {
	mask := len(s.cells) - 1
	i := int(key*0x9E3779B1>>8) & mask
	for s.cells[i].key != key && s.cells[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// slot returns the slot of the line containing addr, materializing a zero
// line on first touch.
func (s *Store) slot(addr uint32) int {
	key := addr>>s.shift + 1
	c := &s.cells[s.probe(key)]
	if c.key == key {
		return int(c.slot)
	}
	*c = storeCell{key, int32(len(s.lines))}
	if len(s.slab) < s.lineBytes {
		s.slab = make([]byte, max(s.lineBytes, 4096))
	}
	s.lines = append(s.lines, s.slab[:s.lineBytes:s.lineBytes])
	s.slab = s.slab[s.lineBytes:]
	s.bases = append(s.bases, addr&^uint32(s.lineBytes-1))
	if 2*len(s.lines) > len(s.cells) {
		s.reindex(2 * len(s.cells))
	}
	return len(s.lines) - 1
}

// Line returns the data for the line containing addr, materializing a
// zero line on first touch. The returned slice aliases the store.
func (s *Store) Line(addr uint32) []byte { return s.lines[s.slot(addr)] }

// WriteLine replaces the line containing addr.
func (s *Store) WriteLine(addr uint32, data []byte) {
	copy(s.Line(addr), data)
}

// Preload writes arbitrary bytes starting at addr (program loading before
// simulation starts) and records the touched lines' resulting content as
// the store's snapshot baseline. Must not be called once simulation has
// started: the baseline is the delta-encoding reference for checkpoints.
func (s *Store) Preload(addr uint32, data []byte) {
	for len(data) > 0 {
		line := s.Line(addr)
		off := int(addr & uint32(s.lineBytes-1))
		n := copy(line[off:], data)
		base := addr &^ uint32(s.lineBytes-1)
		s.baseline[base] = append([]byte(nil), line...)
		s.baseFPvalid = false
		data = data[n:]
		addr += uint32(n)
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (s *Store) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		line := s.Line(addr + uint32(i))
		off := int((addr + uint32(i)) & uint32(s.lineBytes-1))
		c := copy(out[i:], line[off:])
		i += c
	}
	return out
}
