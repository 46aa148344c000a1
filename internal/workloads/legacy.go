package workloads

import "fmt"

// The original three kernels predate the registry: their wire format
// (MipsSpec's dedicated rounds/q/b fields) is frozen for cache-identity
// compatibility, but they register here like every other kernel so the
// scenario schema, validation, and source generation all flow through
// one table. Their parameter names mirror the legacy fields.

func init() {
	register(Kernel{
		Name:     "pingpong",
		Title:    "MPI-style DMA ping-pong between the corner cores",
		Defaults: Params{"rounds": 100},
		Validate: func(p Params, nodes int) error {
			if err := checkRange(p, "rounds", 100, 1_000_000); err != nil {
				return err
			}
			if nodes < 2 {
				return fmt.Errorf("ping-pong workloads need at least 2 nodes")
			}
			return nil
		},
		Source: func(p Params, nodes int) string {
			return PingPongSource(int(p.Get("rounds", 100)))
		},
	})
	register(Kernel{
		Name:     "shared-pingpong",
		Title:    "ping-pong hand-off through the coherent-memory fabric",
		Shared:   true,
		Defaults: Params{"rounds": 100},
		Validate: func(p Params, nodes int) error {
			if err := checkRange(p, "rounds", 100, 1_000_000); err != nil {
				return err
			}
			if nodes < 2 {
				return fmt.Errorf("ping-pong workloads need at least 2 nodes")
			}
			return nil
		},
		Source: func(p Params, nodes int) string {
			return SharedPingPongSource(int(p.Get("rounds", 100)), nodes-1)
		},
	})
	register(Kernel{
		Name:     "cannon",
		Title:    "Cannon's matrix multiply with message passing",
		Defaults: Params{"q": 2, "b": 4},
		Validate: func(p Params, nodes int) error {
			if err := checkRange(p, "q", 2, 64); err != nil {
				return err
			}
			if err := checkRange(p, "b", 4, 64); err != nil {
				return err
			}
			q := int(p.Get("q", 2))
			if nodes != q*q {
				return fmt.Errorf("cannon on a %dx%d grid needs exactly %d nodes, topology has %d",
					q, q, q*q, nodes)
			}
			return nil
		},
		Source: func(p Params, nodes int) string {
			return CannonSource(int(p.Get("q", 2)), int(p.Get("b", 4)))
		},
	})
}

// ParamError is a Validate failure that is one parameter's fault, so a
// caller whose errors carry field pointers can name it.
type ParamError struct {
	Param string
	Msg   string
}

func (e *ParamError) Error() string { return e.Msg }

// checkRange bounds a legacy kernel's parameter. They size run length
// and in-memory structures (cannon blocks are 4*b*b bytes each), so the
// upper bound is what keeps a submission from exhausting its validator.
func checkRange(p Params, name string, def, max int64) error {
	if v := p.Get(name, def); v < 1 || v > max {
		return &ParamError{Param: name, Msg: fmt.Sprintf("%s must be in [1, %d], got %d", name, max, v)}
	}
	return nil
}
