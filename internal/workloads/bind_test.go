package workloads

import (
	"slices"
	"testing"
)

// TestBindErrorFields: every rejection names the input at fault, relative
// to the spec, whichever spelling the parameters came in.
func TestBindErrorFields(t *testing.T) {
	params := func(kernel string, p Params) Spec { return Spec{Kernel: kernel, Params: p} }
	frozen := func(kernel string, f Frozen, p Params) Spec {
		t.Helper()
		s, err := Thaw(kernel, f, p, 0)
		if err != nil {
			t.Fatalf("Thaw(%s): %v", kernel, err)
		}
		return s
	}
	cases := []struct {
		name   string
		spec   Spec
		nodes  int
		memory bool
		field  string
	}{
		{"unknown-kernel", params("doom", nil), 4, false, "kernel"},
		{"unknown-param", params("reduction", Params{"q": 2}), 4, false, "params"},
		{"max-cycles", Spec{Kernel: "reduction", MaxCycles: maxCyclesLimit + 1}, 4, false, "max_cycles"},
		{"registry-bound", params("reduction", Params{"elems": 0}), 4, false, "params/elems"},
		{"registry-bound-b", params("matmul-blocked", Params{"n": 8, "b": 3}), 4, false, "params/b"},
		{"frozen-bound", frozen("cannon", Frozen{B: 65}, nil), 4, false, "b"},
		{"scenario-spelled-legacy-bound", params("cannon", Params{"b": 65}), 4, false, "params/b"},
		{"misfit-machine", params("reduction", nil), 6, false, ""},
		{"needs-memory", params("shared-pingpong", nil), 4, false, "memory"},
		{"forbids-memory", params("pingpong", nil), 4, true, "memory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Bind(tc.nodes, tc.memory)
			if err == nil || err.Field != tc.field {
				t.Fatalf("Bind = %v, want a %q error", err, tc.field)
			}
		})
	}
}

// TestFrozenWireForm: the frozen fields' quirks survive a bind — a field
// <= 0 takes its default, a frozen kernel carries all three fields
// whichever it reads, and each spelling rejects the other's fields.
func TestFrozenWireForm(t *testing.T) {
	s, err := Thaw("pingpong", Frozen{Rounds: -1, Q: 3}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Bind(4, false)
	if err != nil {
		t.Fatal(err)
	}
	if f, p := run.Wire(); f != (Frozen{Rounds: 100, Q: 3, B: 4}) || p != nil {
		t.Fatalf("pingpong wire form = %+v %v, want {100 3 4} and no params", f, p)
	}
	// The scenario spelling of the same run has the same wire form.
	run, err = Spec{Kernel: "pingpong"}.Bind(4, false)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := run.Wire(); f != (Frozen{Rounds: 100, Q: 2, B: 4}) {
		t.Fatalf("scenario-spelled pingpong wire form = %+v", f)
	}
	if f, p := mustBind(t, Spec{Kernel: "reduction"}).Wire(); f != (Frozen{}) || p["elems"] != 64 {
		t.Fatalf("reduction wire form = %+v %v, want params only", f, p)
	}
	if _, err := Thaw("cannon", Frozen{}, Params{"q": 2}, 0); err == nil || err.Field != "params" {
		t.Fatalf("frozen kernel with params: %v", err)
	}
	if _, err := Thaw("reduction", Frozen{Rounds: 5}, nil, 0); err == nil || err.Field != "params" {
		t.Fatalf("registry kernel with frozen fields: %v", err)
	}
}

// TestPlacement: the shared ping-pong runs on the two corner nodes, and
// its source names the same partner; every other kernel fills the machine.
func TestPlacement(t *testing.T) {
	shared, err := Spec{Kernel: "shared-pingpong"}.Bind(16, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := shared.Cores(); !slices.Equal(got, []int{0, 15}) {
		t.Fatalf("shared-pingpong cores = %v, want [0 15]", got)
	}
	if shared.Source() != SharedPingPongSource(100, 15) {
		t.Fatal("shared-pingpong source does not name its placement's partner")
	}
	if got := mustBind(t, Spec{Kernel: "reduction"}).Cores(); len(got) != 4 || got[3] != 3 {
		t.Fatalf("reduction cores = %v, want every node", got)
	}
}

func mustBind(t *testing.T, s Spec) *Run {
	t.Helper()
	run, err := s.Bind(4, false)
	if err != nil {
		t.Fatal(err)
	}
	return run
}
