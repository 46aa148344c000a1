package mips

import (
	"encoding/binary"
	"fmt"
)

// RAM is a sparse page-backed flat 32-bit memory used as a core's private
// store (MPI mode) and as the instruction memory in every mode.
// Little-endian, matching the assembler's data directives. Memory nobody
// wrote reads as zero without being materialized.
//
// The loaded program image is kept as the RAM's checkpoint baseline:
// snapshots encode only pages that diverged from it, and restores reset
// to the baseline before applying the delta (see state.go).
//
// The image's text is also held decoded, one Inst per word from textBase,
// and every path that changes bytes (Write, WriteBytes, LoadState)
// re-decodes the words it touched. The array is the image's own, shared
// read-only by all its cores, until a core patches its text and gets a copy.
type RAM struct {
	pages    map[uint32][]byte
	baseline map[uint32][]byte
	lastKey  uint32 // the page of the last access: staying on it costs no map lookup
	lastPage []byte

	text      []Inst
	textBase  uint32
	textOwned bool   // text is this RAM's copy, not the image's
	imageText []Inst // the image's decode, which LoadState returns to
}

const pageBits = 12
const pageSize = 1 << pageBits

// zeroPage stands in for every page nobody wrote. Never written.
var zeroPage [pageSize]byte

// NewRAM returns an empty memory; all bytes read as zero.
func NewRAM() *RAM {
	return &RAM{pages: make(map[uint32][]byte), baseline: map[uint32][]byte{}}
}

// page returns addr's page: for writing it is materialized, for reading a
// page nobody wrote is the shared zero page.
func (r *RAM) page(addr uint32, write bool) []byte {
	key := addr >> pageBits
	if key == r.lastKey && r.lastPage != nil {
		return r.lastPage
	}
	p := r.pages[key]
	if p == nil {
		if !write {
			return zeroPage[:]
		}
		p = make([]byte, pageSize)
		r.pages[key] = p
	}
	r.lastKey, r.lastPage = key, p
	return p
}

// ByteAt returns the byte at addr.
func (r *RAM) ByteAt(addr uint32) byte {
	return r.page(addr, false)[addr&(pageSize-1)]
}

// Read returns size bytes starting at addr as a little-endian integer.
// size must be 1, 2 or 4 and the access must be naturally aligned.
func (r *RAM) Read(addr uint32, size int) (uint32, error) {
	if err := checkAlign(addr, size); err != nil {
		return 0, err
	}
	p := r.page(addr, false)[addr&(pageSize-1):]
	switch size {
	case 1:
		return uint32(p[0]), nil
	case 2:
		return uint32(binary.LittleEndian.Uint16(p)), nil
	}
	return binary.LittleEndian.Uint32(p), nil
}

// Write stores size bytes at addr.
func (r *RAM) Write(addr uint32, size int, v uint32) error {
	if err := checkAlign(addr, size); err != nil {
		return err
	}
	p := r.page(addr, true)[addr&(pageSize-1):]
	switch size {
	case 1:
		p[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(p, uint16(v))
	default:
		binary.LittleEndian.PutUint32(p, v)
	}
	// The text starts on a word boundary, so an aligned store is inside it
	// or outside it as a whole.
	if addr-r.textBase < uint32(len(r.text))<<2 {
		r.redecode(addr, size)
	}
	return nil
}

// ReadBytes copies n bytes starting at addr.
func (r *RAM) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	for done := 0; done < n; {
		a := addr + uint32(done)
		done += copy(out[done:], r.page(a, false)[a&(pageSize-1):])
	}
	return out
}

// WriteBytes stores data starting at addr.
func (r *RAM) WriteBytes(addr uint32, data []byte) {
	for done := 0; done < len(data); {
		a := addr + uint32(done)
		done += copy(r.page(a, true)[a&(pageSize-1):], data[done:])
	}
	r.redecode(addr, len(data))
}

func checkAlign(addr uint32, size int) error {
	if size != 1 && size != 2 && size != 4 {
		return fmt.Errorf("mips: bad access size %d", size)
	}
	if addr&uint32(size-1) != 0 {
		return fmt.Errorf("mips: misaligned %d-byte access at %#x", size, addr)
	}
	return nil
}

// LoadImage writes a program image (segments from the assembler), seals
// the resulting content as the RAM's checkpoint baseline and adopts the
// image's decoded text.
func (r *RAM) LoadImage(img *Image) {
	r.text, r.textOwned = nil, false
	for _, s := range img.Segments {
		r.WriteBytes(s.Addr, s.Data)
	}
	r.baseline = make(map[uint32][]byte, len(r.pages))
	for key, p := range r.pages {
		r.baseline[key] = append([]byte(nil), p...)
	}
	r.textBase, r.imageText = img.decodedText()
	r.text = r.imageText
	r.redecode(r.textBase, len(r.text)<<2) // a later segment may overlay the text
}

// fetch returns the decoded instruction at pc when pc is a word of the
// text, else nil: the caller then decodes whatever the bytes there say.
func (r *RAM) fetch(pc uint32) *Inst {
	if off := pc - r.textBase; off&3 == 0 && off>>2 < uint32(len(r.text)) {
		return &r.text[off>>2]
	}
	return nil
}

// redecode brings the decoded text back in line with the bytes after a
// write of n bytes at addr, wherever the two overlap. A word whose decode
// did not change leaves a shared text shared; the first that did makes the
// text this RAM's own.
func (r *RAM) redecode(addr uint32, n int) {
	first := int64(addr) - int64(r.textBase) // byte offsets into the text
	last := min(first+int64(n), int64(len(r.text))<<2) - 1
	for w := max(first, 0) >> 2; w <= last>>2; w++ {
		a := r.textBase + uint32(w)<<2
		in := Decode(binary.LittleEndian.Uint32(r.page(a, false)[a&(pageSize-1):]))
		if in == r.text[w] {
			continue
		}
		if !r.textOwned {
			r.text, r.textOwned = append([]Inst(nil), r.text...), true
		}
		r.text[w] = in
	}
}
