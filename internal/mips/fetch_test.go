package mips

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"hornet/internal/snapshot"
)

// The fetch path: cores execute from a decoded text array, and the bytes
// stay the truth — whatever writes them, the next fetch sees it.

// printsOne prints $a0 and exits; the word at "patch" sets $a0 to 1.
const printsOne = `
main:
	nop
patch:
	addiu $a0, $zero, 1
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`

// setA0 is the instruction word of "addiu $a0, $zero, v".
func setA0(v uint16) uint32 { return EncodeI(opADDIU, RegZero, RegA0, v) }

func word(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

func assemble(t *testing.T, src string) *Image {
	t.Helper()
	img, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

func runToHalt(t *testing.T, c *Core) string {
	t.Helper()
	for i := 0; i < 1000 && !c.Halted(); i++ {
		c.Tick(uint64(i))
	}
	if !c.Halted() {
		t.Fatalf("core did not halt (pc=%#x)", c.PC)
	}
	return c.Console()
}

func saveCore(t *testing.T, c *Core) *snapshot.Snapshot {
	t.Helper()
	snap := snapshot.New("test", 0)
	if err := c.SaveState(snap.Section("core")); err != nil {
		t.Fatal(err)
	}
	return snap
}

func loadCore(t *testing.T, c *Core, snap *snapshot.Snapshot) {
	t.Helper()
	r, err := snap.Open("core")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadState(r); err != nil {
		t.Fatal(err)
	}
}

// A private-memory program that stores a new instruction word over one it
// is about to execute runs the new word.
func TestStoreIntoTextIsFetched(t *testing.T) {
	src := fmt.Sprintf(`
main:
	la   $t0, patch
	li   $t1, %d
	sw   $t1, 0($t0)
patch:
	addiu $a0, $zero, 1
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`, setA0(7))
	if got := runLocal(t, src, 1000).Console(); got != "7" {
		t.Fatalf("console = %q, want 7: the core executed the word it had overwritten", got)
	}
	// A byte store is enough to change the decode.
	src = strings.Replace(src, "sw   $t1", "sb   $t1", 1)
	if got := runLocal(t, src, 1000).Console(); got != "7" {
		t.Fatalf("console after a byte store = %q, want 7", got)
	}
}

// RAM().WriteBytes into the text after NewCore is seen by the next fetch,
// and two cores sharing one image never see each other's patch.
func TestWriteBytesIntoTextCopyOnWrite(t *testing.T) {
	img := assemble(t, printsOne)
	a := NewCore(0, 2, img, nil, nil)
	b := NewCore(1, 2, img, nil, nil)
	if &a.RAM().text[0] != &b.RAM().text[0] {
		t.Fatal("two cores of one image do not share its decoded text")
	}
	a.RAM().WriteBytes(img.Symbols["patch"], word(setA0(7)))
	if got := runToHalt(t, a); got != "7" {
		t.Fatalf("patched core printed %q, want 7", got)
	}
	if got := runToHalt(t, b); got != "1" {
		t.Fatalf("the other core printed %q, want 1: it saw its neighbour's patch", got)
	}
	if c := NewCore(0, 2, img, nil, nil); runToHalt(t, c) != "1" {
		t.Fatal("a core built after the patch saw it: the image's text was written")
	}
	// Rewriting a word with the bytes it already holds keeps the text shared.
	d := NewCore(0, 2, img, nil, nil)
	d.RAM().WriteBytes(img.Symbols["patch"], word(setA0(1)))
	if d.RAM().textOwned {
		t.Fatal("a write that changed no instruction copied the text")
	}
}

// A snapshot carries a patched text as RAM bytes; loading it re-derives
// the decode, in both directions.
func TestLoadStateRestoresDecode(t *testing.T) {
	img := assemble(t, printsOne)
	patched := NewCore(0, 1, img, nil, nil)
	patched.RAM().WriteBytes(img.Symbols["patch"], word(setA0(7)))
	patched.Tick(0) // the nop: mid-run, before the patched word

	fresh := NewCore(0, 1, img, nil, nil)
	loadCore(t, fresh, saveCore(t, patched))
	if got := runToHalt(t, fresh); got != "7" {
		t.Fatalf("restored core printed %q, want the patched 7", got)
	}

	// The other way: a core whose text was patched goes back to the
	// image's decode when the snapshot holds the image's bytes.
	other := NewCore(0, 1, img, nil, nil)
	other.RAM().WriteBytes(img.Symbols["patch"], word(setA0(9)))
	loadCore(t, other, saveCore(t, NewCore(0, 1, img, nil, nil)))
	if got := runToHalt(t, other); got != "1" {
		t.Fatalf("core restored from an unpatched snapshot printed %q, want 1", got)
	}
}

// A PC outside the text executes what the bytes there say: zeros are
// sll $0,$0,0, so the core walks on; bytes written there are decoded.
func TestFetchOutsideText(t *testing.T) {
	const far = 0x0050_0000
	c := NewCore(0, 1, assemble(t, "main:\n\tli $t0, 0x500000\n\tjr $t0\n"), nil, nil)
	c.RAM().WriteBytes(far+8, word(setA0(5)))
	cycle := uint64(0)
	for ; c.PC != far && cycle < 10; cycle++ {
		c.Tick(cycle)
	}
	before := c.Instret
	for i := 0; i < 3; i++ { // two zero words, then the written one
		c.Tick(cycle + uint64(i))
	}
	if c.PC != far+12 || c.Instret != before+3 || c.Regs[RegA0] != 5 {
		t.Fatalf("pc=%#x retired %d a0=%d, want pc=%#x, 3 retired, a0=5", c.PC, c.Instret-before, c.Regs[RegA0], far+12)
	}
}

// A misaligned PC still panics with the message it always had.
func TestMisalignedPCPanics(t *testing.T) {
	c := NewCore(3, 4, assemble(t, printsOne), nil, nil)
	c.PC += 2
	defer func() {
		want := fmt.Sprintf("mips: core 3: bad PC %#x: mips: misaligned 4-byte access at %#x", c.PC, c.PC)
		if got := recover(); got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	c.Tick(0)
}

// Reads of memory nobody wrote return zero and materialize nothing: a
// stray load or a long string walk must not grow the page map, and the
// checkpoint treats an all-zero page as absent either way.
func TestReadsDoNotMaterializePages(t *testing.T) {
	r := NewRAM()
	r.WriteBytes(0x1000, []byte("hi"))
	pages := len(r.pages)
	allocs := testing.AllocsPerRun(100, func() {
		if v, err := r.Read(0x7000_0000, 4); v != 0 || err != nil {
			t.Fatalf("untouched word reads %#x, %v", v, err)
		}
		if r.ByteAt(0x2000_0001) != 0 {
			t.Fatal("untouched byte is not zero")
		}
	})
	for _, b := range r.ReadBytes(0x0FFE, 3*pageSize) { // spans a written page and two absent ones
		if b != 0 && b != 'h' && b != 'i' {
			t.Fatalf("ReadBytes returned %#x", b)
		}
	}
	if allocs != 0 || len(r.pages) != pages {
		t.Fatalf("reads allocated %v objects and grew the page map from %d to %d", allocs, pages, len(r.pages))
	}

	// A page that was materialized by a write of zeros is as absent to
	// the checkpoint as one never touched.
	r.WriteBytes(0x9000, make([]byte, 8))
	if !r.pageMatchesBaseline(0x9000>>pageBits, r.pages[0x9000>>pageBits]) {
		t.Fatal("an all-zero page is not treated as absent by the checkpoint")
	}
	snap := snapshot.New("test", 0)
	r.SaveState(snap.Section("ram"))
	rd, err := snap.Open("ram")
	if err != nil {
		t.Fatal(err)
	}
	if n := rd.Int(); n != 1 {
		t.Fatalf("checkpoint holds %d pages, want 1 (the written one)", n)
	}
}

// WriteBytes and ReadBytes copy page-wise across page boundaries.
func TestWriteBytesAcrossPages(t *testing.T) {
	r := NewRAM()
	data := make([]byte, 2*pageSize+100)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	const at = 0x3000 - 50
	r.WriteBytes(at, data)
	got := r.ReadBytes(at, len(data))
	for i := range data {
		if got[i] != data[i] || r.ByteAt(at+uint32(i)) != data[i] {
			t.Fatalf("byte %d: ReadBytes %#x, ByteAt %#x, wrote %#x", i, got[i], r.ByteAt(at+uint32(i)), data[i])
		}
	}
}
