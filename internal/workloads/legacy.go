package workloads

import "fmt"

// The original three kernels predate the registry: their wire format
// (the mips request's dedicated rounds/q/b fields, see Frozen) is frozen
// for cache-identity compatibility, but they register here like every
// other kernel so the scenario schema, validation, and source generation
// all flow through one table. Their parameter names mirror the frozen
// fields.

// The frozen fields' defaults, which are also the three kernels' own.
const (
	defaultRounds = 100
	defaultQ      = 2
	defaultB      = 4
)

func init() {
	register(Kernel{
		Name:     "pingpong",
		Title:    "MPI-style DMA ping-pong between the corner cores",
		Defaults: Params{"rounds": defaultRounds},
		Validate: validatePingPong,
		Source: func(p Params, cores []int) string {
			return PingPongSource(int(p["rounds"]))
		},
		frozen: true,
	})
	register(Kernel{
		Name:     "shared-pingpong",
		Title:    "ping-pong hand-off through the coherent-memory fabric",
		Shared:   true,
		Defaults: Params{"rounds": defaultRounds},
		Validate: validatePingPong,
		// Core 0 and its partner, the last node: the two corners of a mesh.
		Cores: func(nodes int) []int { return []int{0, nodes - 1} },
		Source: func(p Params, cores []int) string {
			return SharedPingPongSource(int(p["rounds"]), cores[1])
		},
		frozen: true,
	})
	register(Kernel{
		Name:     "cannon",
		Title:    "Cannon's matrix multiply with message passing",
		Defaults: Params{"q": defaultQ, "b": defaultB},
		Validate: func(p Params, nodes int) error {
			if err := checkRange(p, "q", 64); err != nil {
				return err
			}
			if err := checkRange(p, "b", 64); err != nil {
				return err
			}
			if q := int(p["q"]); nodes != q*q {
				return fmt.Errorf("cannon on a %dx%d grid needs exactly %d nodes, topology has %d",
					q, q, q*q, nodes)
			}
			return nil
		},
		Source: func(p Params, cores []int) string {
			return CannonSource(int(p["q"]), int(p["b"]))
		},
		frozen: true,
	})
}

func validatePingPong(p Params, nodes int) error {
	if err := checkRange(p, "rounds", 1_000_000); err != nil {
		return err
	}
	if nodes < 2 {
		return fmt.Errorf("ping-pong workloads need at least 2 nodes")
	}
	return nil
}

// ParamError is a Validate failure that is one parameter's fault, so a
// caller whose errors carry field pointers can name it.
type ParamError struct {
	Param string
	Msg   string
}

func (e *ParamError) Error() string { return e.Msg }

// checkRange bounds a parameter to [1, max]. Parameters size run length
// and in-memory structures (cannon blocks are 4*b*b bytes each), so the
// upper bound is what keeps a submission from exhausting its validator.
// Validate sees a fully defaulted set, so an absent name reads as 0.
func checkRange(p Params, name string, max int64) error {
	if v := p[name]; v < 1 || v > max {
		return &ParamError{Param: name, Msg: fmt.Sprintf("%s must be in [1, %d], got %d", name, max, v)}
	}
	return nil
}
