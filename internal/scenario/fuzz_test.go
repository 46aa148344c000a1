package scenario

import (
	"testing"

	"hornet/internal/core"
)

// FuzzScenario drives arbitrary bytes through the full decode →
// normalize → encode pipeline and asserts the content-addressing
// invariants: normalization is deterministic, its output re-decodes,
// and re-normalizing is a fixed point (same bytes). Then it compiles the
// document: every run Compile accepts on at most 64 nodes must build and
// take its frontend (no cycle is run). The corpus seeds are the preset
// gallery, so mutations start from every schema feature, and the machines
// testdata/fuzz holds, which the build refuses.
func FuzzScenario(f *testing.F) {
	for _, name := range PresetNames() {
		s, _ := Preset(name)
		b, err := Encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ferr := Decode(data)
		if ferr != nil {
			return // malformed input must be rejected, never panic
		}
		n, ferr := s.Normalize()
		if ferr != nil {
			return
		}
		e1, err := Encode(n)
		if err != nil {
			t.Fatalf("normalized scenario does not encode: %v", err)
		}
		s2, ferr := Decode(e1)
		if ferr != nil {
			t.Fatalf("normalized form does not re-decode: %v\n%s", ferr, e1)
		}
		n2, ferr := s2.Normalize()
		if ferr != nil {
			t.Fatalf("normalized form does not re-normalize: %v\n%s", ferr, e1)
		}
		e2, err := Encode(n2)
		if err != nil {
			t.Fatal(err)
		}
		if string(e1) != string(e2) {
			t.Fatalf("normalization is not a fixed point:\n%s\n---\n%s", e1, e2)
		}
		comp, ferr := Compile(s)
		if ferr != nil {
			return
		}
		for _, r := range comp.Runs {
			if r.Config.Topology.Nodes() > 64 {
				continue
			}
			sys, err := core.New(r.Config)
			if err == nil && r.Workload == nil {
				err = sys.AttachSyntheticTraffic()
			} else if err == nil {
				err = sys.AttachWorkload(r.Workload)
			}
			if err != nil {
				t.Fatalf("Compile accepted run %q, which does not build: %v\n%s", r.Key, err, data)
			}
		}
	})
}
