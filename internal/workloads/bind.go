package workloads

import (
	"errors"
	"fmt"
	"strings"

	"hornet/internal/mips"
)

// Every rule about a kernel run lives here, behind Spec.Bind: parameter
// defaults and bounds, the cycle cap, the memory fabric, the placement of
// the cores, the generated source and the frozen wire form of the
// pre-registry kernels. The scenario compiler and the service's mips
// request both bind through it and only translate Error.Field into their
// own pointer spaces.

const (
	// defaultMaxCycles caps a run that never halts.
	defaultMaxCycles = 10_000_000
	// maxCyclesLimit is the largest cap a submission may ask for.
	maxCyclesLimit = 1_000_000_000
)

// Spec is one kernel run as a submission writes it: the registry name,
// its parameters (missing keys take the kernel's defaults) and the cycle
// cap (0 takes the default).
type Spec struct {
	Kernel    string
	Params    Params
	MaxCycles uint64

	// frozen marks a spec read from the frozen fields (Thaw): Params then
	// holds all three of them, and errors name them as the fields.
	frozen bool
}

// Frozen is the mips request's pre-registry spelling of the parameters of
// pingpong, shared-pingpong and cannon: one field each for rounds, q and
// b. Cache identities hash it, so its quirks stay: a field <= 0 takes its
// default, and a frozen kernel's identity carries all three fields,
// whichever of them it reads.
type Frozen struct{ Rounds, Q, B int }

// Error is a binding failure. Field names the input at fault, relative to
// the spec: "kernel", "params", "params/<name>" ("<name>" for a frozen
// field), "max_cycles", "memory" (the machine's memory section) or ""
// (the machine itself).
type Error struct {
	Field string
	Msg   string
}

func (e *Error) Error() string { return e.Msg }

func errorf(field, format string, args ...any) *Error {
	return &Error{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Thaw reads a kernel run spelled in the mips request's wire form — a
// frozen kernel's parameters from f, any other kernel's from p, each
// spelling leaving the other's fields empty — and normalizes it.
func Thaw(kernel string, f Frozen, p Params, maxCycles uint64) (Spec, *Error) {
	k, err := lookup(kernel)
	if err != nil {
		return Spec{}, err
	}
	s := Spec{Kernel: kernel, Params: p, MaxCycles: maxCycles}
	switch {
	case k.frozen && len(p) > 0:
		return Spec{}, errorf("params",
			"%s predates the parameter registry; use the rounds/q/b fields, not params", kernel)
	case k.frozen:
		thaw := func(v, def int) int64 {
			if v <= 0 {
				return int64(def)
			}
			return int64(v)
		}
		s.Params = Params{
			"rounds": thaw(f.Rounds, defaultRounds),
			"q":      thaw(f.Q, defaultQ),
			"b":      thaw(f.B, defaultB),
		}
		s.frozen = true
	case f != Frozen{}:
		return Spec{}, errorf("params", "%s is parameterized via params, not the rounds/q/b fields", kernel)
	}
	return s.Normalize()
}

// Normalize returns the canonical spec: the kernel's defaults folded into
// its parameters and the cycle cap made explicit. It needs no machine, so
// a scenario document normalizes before its sweep points exist.
func (s Spec) Normalize() (Spec, *Error) {
	k, err := lookup(s.Kernel)
	if err != nil {
		return Spec{}, err
	}
	if !s.frozen {
		p, err := k.Normalize(s.Params)
		if err != nil {
			return Spec{}, errorf("params", "%s", err)
		}
		s.Params = p
	}
	if s.MaxCycles == 0 {
		s.MaxCycles = defaultMaxCycles
	}
	if s.MaxCycles > maxCyclesLimit {
		return Spec{}, errorf("max_cycles", "max_cycles must be <= %d", maxCyclesLimit)
	}
	return s, nil
}

// Bind normalizes the spec and binds it to a machine of nodes tiles, with
// or without the coherent-memory fabric. The kernel's own bounds are
// checked before anything its parameters size, and the generated source
// is assembled once, so every rejection happens at submission time.
func (s Spec) Bind(nodes int, memory bool) (*Run, *Error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	k := registry[s.Kernel]
	if err := k.Validate(s.Params, nodes); err != nil {
		var pe *ParamError
		if !errors.As(err, &pe) {
			return nil, errorf("", "%s", err)
		}
		field := "params/" + pe.Param
		if s.frozen {
			field = pe.Param
		}
		return nil, errorf(field, "%s", err)
	}
	switch {
	case k.Shared && !memory:
		return nil, errorf("memory", "%s runs on the coherent-memory fabric; the machine needs a memory section", s.Kernel)
	case !k.Shared && memory:
		return nil, errorf("memory", "%s uses private per-core memory; omit the machine's memory section", s.Kernel)
	}
	r := &Run{Kernel: s.Kernel, Params: s.Params, MaxCycles: s.MaxCycles, Shared: k.Shared, k: k, nodes: nodes}
	if _, err := mips.Assemble(r.Source()); err != nil {
		return nil, errorf("kernel", "%s does not assemble: %s", s.Kernel, err)
	}
	return r, nil
}

func lookup(name string) (Kernel, *Error) {
	k, ok := registry[name]
	if !ok {
		return k, errorf("kernel", "unknown kernel %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	return k, nil
}

// Run is a kernel bound to a machine: what an executor runs and what a
// cache identity hashes.
type Run struct {
	Kernel string
	// Params is the canonical parameter set (Thaw's three fields for a
	// run read from the frozen wire form).
	Params    Params
	MaxCycles uint64
	// Shared runs the cores on the coherent-memory fabric; otherwise each
	// has private memory and a network port.
	Shared bool

	k     Kernel
	nodes int
}

// Cores returns the placement: the nodes that run a core, in core order.
func (r *Run) Cores() []int {
	if r.k.Cores != nil {
		return r.k.Cores(r.nodes)
	}
	all := make([]int, r.nodes)
	for i := range all {
		all[i] = i
	}
	return all
}

// Source generates the run's MIPS assembly.
func (r *Run) Source() string { return r.k.Source(r.Params, r.Cores()) }

// Wire returns the run's parameters in the mips request's wire form: a
// frozen kernel's in the three fields, each defaulted, any other
// kernel's in params.
func (r *Run) Wire() (Frozen, Params) {
	if !r.k.frozen {
		return Frozen{}, r.Params
	}
	return Frozen{
		Rounds: int(r.Params.Get("rounds", defaultRounds)),
		Q:      int(r.Params.Get("q", defaultQ)),
		B:      int(r.Params.Get("b", defaultB)),
	}, nil
}
