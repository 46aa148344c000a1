// Package scenario defines the declarative scenario schema: a versioned
// JSON document that composes a machine (topology, router, routing,
// memory hierarchy, power/thermal models), a frontend (synthetic traffic
// or a named application kernel), a run plan (warmup window, seeding,
// sharding), and sweep axes into validated simulation configurations.
//
// The schema describes machines, not figures: instead of submitting a
// fully spelled-out config.Config or naming a pre-built experiment, a
// scenario names the design point it wants explored and the package
// compiles it — every omitted knob taking the paper's Table I baseline —
// into the exact per-run configurations the simulation service executes.
//
// Three operations define the package:
//
//   - Decode: strict JSON parsing. Unknown fields and type mismatches
//     are rejected with a JSON-pointer path to the offending input.
//
//   - Normalize: canonicalization. Every default is materialized (the
//     full router section, kernel parameters, the run plan), so two
//     scenarios that mean the same machine normalize to byte-identical
//     documents — the property that lets scenarios share the service's
//     content-addressed result cache.
//
//   - Compile: sweep expansion and lowering. Axes are applied as JSON
//     pointers over the normalized document, each resulting point is
//     re-validated, and every run lowers to a config.Config plus an
//     optional workload binding.
package scenario

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"

	"hornet/internal/config"
	"hornet/internal/workloads"
)

// Version is the schema version this package speaks. Documents must
// declare it explicitly so future revisions can change defaults without
// silently reinterpreting archived scenarios.
const Version = 1

// DefaultSeed matches the experiment harness default: a scenario with no
// run.seed reproduces the same documents as an unseeded legacy
// submission.
const DefaultSeed = 0x5EED0A11

// MaxSweepRuns bounds how many runs one scenario may expand to.
const MaxSweepRuns = 512

var nameRE = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,64}$`)
var axisNameRE = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,32}$`)

// Scenario is the root document.
type Scenario struct {
	// Version must be 1.
	Version int `json:"version"`
	// Name labels the job and its result document ([a-zA-Z0-9._-]{1,64});
	// empty defaults to the compiled kind.
	Name string `json:"name,omitempty"`
	// Machine describes the design point. Omitted sections take the
	// paper's Table I baseline (config.Default()).
	Machine Machine `json:"machine"`
	// Traffic attaches synthetic traffic sources; mutually exclusive
	// with Workload.
	Traffic []config.TrafficConfig `json:"traffic,omitempty"`
	// Workload names an application kernel to run on MIPS cores;
	// mutually exclusive with Traffic.
	Workload *Workload `json:"workload,omitempty"`
	// Run is the execution plan: measurement window, fast-forward,
	// seeding, sharding.
	Run *Plan `json:"run,omitempty"`
	// Sweep expands the scenario into the cartesian product of its axes.
	Sweep []Axis `json:"sweep,omitempty"`
}

// Machine is a design-point description layered over the baseline
// configuration. The topology is required; every other section is an
// overlay — a section left out (or a field left zero inside a provided
// section) takes the baseline value, which is safe because zero is not a
// valid value for any load-bearing field. The two exceptions, documented
// on their fields, are booleans and the inj_* router fields, whose zero
// values are themselves the baseline.
type Machine struct {
	Topology config.TopologyConfig `json:"topology"`
	// Router overlays the router section. Bidirectional is taken
	// verbatim (false is the baseline); inj_vcs/inj_buf_flits zero means
	// "same as network ports", as in config.RouterConfig.
	Router  *config.RouterConfig  `json:"router,omitempty"`
	Routing *config.RoutingConfig `json:"routing,omitempty"`
	// Memory, when present, attaches the cache/memory-controller
	// hierarchy (overlaying config.DefaultMemory()); absent means no
	// coherent fabric.
	Memory  *config.MemoryConfig  `json:"memory,omitempty"`
	Power   *config.PowerConfig   `json:"power,omitempty"`
	Thermal *config.ThermalConfig `json:"thermal,omitempty"`
	// AvgPacketFlits is the default packet length; 0 takes the baseline 8.
	AvgPacketFlits int `json:"avg_packet_flits,omitempty"`
}

// Workload binds a registered application kernel (internal/workloads) to
// the machine.
type Workload struct {
	// Kernel is the registry name: "pingpong", "shared-pingpong",
	// "cannon", "reduction", "matmul-blocked", ...
	Kernel string `json:"kernel"`
	// Params parameterizes the kernel; missing keys take the kernel's
	// defaults, unknown keys are rejected.
	Params workloads.Params `json:"params,omitempty"`
	// MaxCycles caps the run if the workload never halts (default 10M).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
}

// Plan is the execution plan. Warmup/analyzed windows apply to
// synthetic-traffic scenarios only; application workloads define their
// own span (halt or max_cycles).
type Plan struct {
	// WarmupCycles precede the measured window (traffic scenarios;
	// default 200000, explicit 0 allowed).
	WarmupCycles *int `json:"warmup_cycles,omitempty"`
	// AnalyzedCycles is the measured window (traffic scenarios;
	// default 2000000).
	AnalyzedCycles int `json:"analyzed_cycles,omitempty"`
	// FastForward skips provably idle cycles.
	FastForward bool `json:"fast_forward,omitempty"`
	// SyncPeriod is the engine synchronization period (default 1,
	// cycle-accurate).
	SyncPeriod int `json:"sync_period,omitempty"`
	// Seed is the job's master seed; 0 takes DefaultSeed.
	Seed uint64 `json:"seed,omitempty"`
	// ShareWarmup derives run seeds from warmup-prefix groups
	// (traffic sweeps only); part of the cache identity.
	ShareWarmup bool `json:"share_warmup,omitempty"`
	// Shards, when >= 2, asks for that many engine workers for the one
	// simulation; never part of the cache identity.
	Shards int `json:"shards,omitempty"`
}

// Axis is one sweep dimension: the values are substituted at Path (a
// JSON pointer into the scenario document, under /machine, /traffic or
// /workload) and the cartesian product of all axes becomes the run set.
type Axis struct {
	Name   string            `json:"name"`
	Path   string            `json:"path"`
	Values []json.RawMessage `json:"values"`
}

// Decode parses a scenario document strictly: the input must be a JSON
// object, and unknown fields anywhere in it are rejected with a pointer
// to where they appeared.
func Decode(data []byte) (*Scenario, *FieldError) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return nil, errf("", "scenario must be a JSON object: %s", jsonMsg(err))
	}
	if ferr := checkKeys("", top,
		"version", "name", "machine", "traffic", "workload", "run", "sweep"); ferr != nil {
		return nil, ferr
	}
	s := &Scenario{}
	for _, f := range []struct {
		key  string
		path string
		dst  any
	}{
		{"version", "/version", &s.Version},
		{"name", "/name", &s.Name},
		{"machine", "/machine", &s.Machine},
		{"workload", "/workload", &s.Workload},
		{"run", "/run", &s.Run},
	} {
		if raw, ok := top[f.key]; ok {
			if ferr := strictField(raw, f.path, f.dst); ferr != nil {
				return nil, ferr
			}
		}
	}
	if raw, ok := top["traffic"]; ok {
		var items []json.RawMessage
		if err := json.Unmarshal(raw, &items); err != nil {
			return nil, errf("/traffic", "must be an array: %s", jsonMsg(err))
		}
		s.Traffic = make([]config.TrafficConfig, len(items))
		for i, item := range items {
			if ferr := strictField(item, pointerIndex("/traffic", i), &s.Traffic[i]); ferr != nil {
				return nil, ferr
			}
		}
	}
	if raw, ok := top["sweep"]; ok {
		var items []json.RawMessage
		if err := json.Unmarshal(raw, &items); err != nil {
			return nil, errf("/sweep", "must be an array: %s", jsonMsg(err))
		}
		s.Sweep = make([]Axis, len(items))
		for i, item := range items {
			if ferr := strictField(item, pointerIndex("/sweep", i), &s.Sweep[i]); ferr != nil {
				return nil, ferr
			}
		}
	}
	return s, nil
}

// Encode renders a scenario with stable two-space indentation and a
// trailing newline — the canonical file form used by examples/ and the
// golden tests.
func Encode(s *Scenario) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// strictField decodes raw into dst rejecting unknown fields; errors are
// anchored at path.
func strictField(raw json.RawMessage, path string, dst any) *FieldError {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return errf(path, "%s", jsonMsg(err))
	}
	return nil
}

// checkKeys rejects object keys outside the allowed set.
func checkKeys(path string, m map[string]json.RawMessage, allowed ...string) *FieldError {
	for key := range m {
		ok := false
		for _, a := range allowed {
			if key == a {
				ok = true
				break
			}
		}
		if !ok {
			return errf(path+"/"+escapePointer(key),
				"unknown field (accepts %s)", strings.Join(allowed, ", "))
		}
	}
	return nil
}

// jsonMsg strips the stdlib's "json: " prefix for cleaner messages.
func jsonMsg(err error) string {
	return strings.TrimPrefix(err.Error(), "json: ")
}
