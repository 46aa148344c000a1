package mips_test

import (
	"os"
	"reflect"
	"testing"

	"hornet/internal/mips"
	"hornet/internal/workloads"
)

// FuzzAssemble feeds the assembler arbitrary source, seeded with the
// all-forms golden source and every registered kernel at its defaults:
// Assemble must never panic, never build a section past its limit, and
// build the same image, or fail with the same error, every time.
func FuzzAssemble(f *testing.F) {
	golden, err := os.ReadFile("testdata/allforms.s")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(golden))
	f.Add(".data\n.byte 0\n.space 9223372036854775807")
	for _, name := range workloads.Names() {
		k, _ := workloads.Lookup(name)
		run, err := workloads.Spec{Kernel: name}.Bind(4, k.Shared)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(run.Source())
	}
	f.Fuzz(func(t *testing.T, src string) {
		img, err := mips.Assemble(src)
		again, err2 := mips.Assemble(src)
		if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() {
			t.Fatalf("two assemblies disagree: %v, then %v", err, err2)
		}
		if err != nil {
			return
		}
		for _, s := range img.Segments {
			if len(s.Data) > mips.SectionLimit {
				t.Fatalf("segment at %#x holds %d bytes, more than %d", s.Addr, len(s.Data), mips.SectionLimit)
			}
		}
		if !reflect.DeepEqual(img.Segments, again.Segments) || img.Entry != again.Entry ||
			!reflect.DeepEqual(img.Symbols, again.Symbols) {
			t.Fatal("two assemblies of the same source built different images")
		}
	})
}
