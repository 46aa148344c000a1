package mips

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"
)

var updateAsmGolden = flag.Bool("update-asm-golden", false, "rewrite testdata/allforms.golden from this assembler")

// dumpImage renders an image as text: the entry, the symbols by name and
// every segment as 16 bytes of hex a line.
func dumpImage(img *Image) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "entry %#08x\n", img.Entry)
	names := make([]string, 0, len(img.Symbols))
	for name := range img.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "symbol %s %#08x\n", name, img.Symbols[name])
	}
	for _, s := range img.Segments {
		fmt.Fprintf(&b, "segment %#08x %d\n", s.Addr, len(s.Data))
		for i := 0; i < len(s.Data); i += 16 {
			fmt.Fprintf(&b, "%#08x % x\n", s.Addr+uint32(i), s.Data[i:min(i+16, len(s.Data))])
		}
	}
	return b.Bytes()
}

// TestAssembleGolden pins the encoding of every machine mnemonic, operand
// form, pseudo-instruction and directive: testdata/allforms.s must
// assemble to the image recorded in testdata/allforms.golden, byte for
// byte, symbols and entry included.
func TestAssembleGolden(t *testing.T) {
	src, err := os.ReadFile("testdata/allforms.s")
	if err != nil {
		t.Fatal(err)
	}
	img, err := Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	got := dumpImage(img)
	if *updateAsmGolden {
		if err := os.WriteFile("testdata/allforms.golden", got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/allforms.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("image differs from testdata/allforms.golden at line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
