package workloads

import (
	"fmt"
	"sort"
)

// Params is a kernel's integer parameter set. Kernels declare defaults
// and bounds; a nil map is equivalent to "all defaults". Go marshals
// maps with sorted keys, so a Params value embedded in a cache identity
// hashes deterministically.
type Params map[string]int64

// Get returns the parameter's value, or def when absent.
func (p Params) Get(key string, def int64) int64 {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Kernel describes one registered application kernel: how to validate
// its parameters against a platform, where its cores go and how to
// generate its MIPS source. Callers outside this package go through a
// Spec and its Bind, which apply every rule about a kernel run.
type Kernel struct {
	// Name is the wire name ("reduction", "matmul-blocked", ...).
	Name string
	// Title is a one-line description for catalogues and docs.
	Title string
	// Shared marks kernels that run on the coherent-memory fabric
	// (config.memory required); private-memory kernels forbid it.
	Shared bool
	// Defaults hold the canonical value of every parameter the kernel
	// accepts; normalization folds them into the submitted Params so
	// equivalent submissions share one cache identity.
	Defaults Params
	// Validate checks a fully defaulted parameter set against the
	// platform's node count. It runs at submission time, so rejections
	// are 4xx responses, never mid-job failures. A bound on one
	// parameter fails with a *ParamError, so the error can name it.
	Validate func(p Params, nodes int) error
	// Cores places the kernel on a machine of nodes tiles: the nodes that
	// run a core, in core order. Nil places a core on every node.
	Cores func(nodes int) []int
	// Source generates the kernel's MIPS assembly for the placement
	// cores, with the parameters baked in (the repo-wide idiom: data as
	// .word/.space constants).
	Source func(p Params, cores []int) string

	// frozen marks the kernels that predate the registry: the mips
	// request spells their parameters in the Frozen fields.
	frozen bool
}

// registry holds the registered kernels by wire name.
var registry = map[string]Kernel{}

// register adds a kernel at package init; duplicate names are
// programming errors.
func register(k Kernel) {
	if _, dup := registry[k.Name]; dup {
		panic("workloads: duplicate kernel " + k.Name)
	}
	registry[k.Name] = k
}

// Lookup returns the registered kernel for a wire name.
func Lookup(name string) (Kernel, bool) {
	k, ok := registry[name]
	return k, ok
}

// Names lists the registered kernel names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Normalize folds the kernel's defaults into p (nil allowed) and
// rejects parameters the kernel does not declare, so the canonical
// parameter set — and therefore the cache identity — is complete and
// closed under the kernel's schema.
func (k Kernel) Normalize(p Params) (Params, error) {
	out := make(Params, len(k.Defaults))
	for key, def := range k.Defaults {
		out[key] = def
	}
	for key, v := range p {
		if _, known := k.Defaults[key]; !known {
			return nil, fmt.Errorf("kernel %s takes no parameter %q (accepts %s)",
				k.Name, key, paramNames(k.Defaults))
		}
		out[key] = v
	}
	return out, nil
}

func paramNames(d Params) string {
	keys := make([]string, 0, len(d))
	for key := range d {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	s := ""
	for i, key := range keys {
		if i > 0 {
			s += ", "
		}
		s += key
	}
	return s
}
