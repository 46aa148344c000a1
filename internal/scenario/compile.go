package scenario

import (
	"bytes"
	"encoding/json"
	"strings"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/workloads"
)

// Run is one compiled simulation: the full configuration it executes
// and, for application scenarios, the kernel bound to that machine. Key
// is empty for single-run scenarios (the job name stands in) and the
// axis-derived label for sweep points.
type Run struct {
	Key      string
	Config   config.Config
	Workload *workloads.Run
}

// Compiled is a scenario lowered to its executable form, plus the
// normalized document it came from.
type Compiled struct {
	Normalized  *Scenario
	Name        string
	Seed        uint64
	ShareWarmup bool
	Shards      int
	Runs        []Run
}

// Compile normalizes the scenario, expands its sweep axes, and lowers
// every point to a config.Config that core.Plan accepts (+ workload
// binding). Each expanded point is strictly re-decoded and re-validated,
// so a swept value can never smuggle in a state the schema would have
// rejected as direct input.
func Compile(s *Scenario) (*Compiled, *FieldError) {
	n, ferr := s.Normalize()
	if ferr != nil {
		return nil, ferr
	}
	c := &Compiled{
		Normalized:  n,
		Name:        n.Name,
		Seed:        n.Run.Seed,
		ShareWarmup: n.Run.ShareWarmup,
		Shards:      n.Run.Shards,
	}
	if len(n.Sweep) == 0 {
		cfg, run, ferr := n.runConfig()
		if ferr != nil {
			return nil, ferr
		}
		c.Runs = []Run{{Config: cfg, Workload: run}}
		return c, nil
	}

	total := 1
	for _, ax := range n.Sweep {
		total *= len(ax.Values)
		if total > MaxSweepRuns {
			return nil, errf("/sweep", "sweep expands to more than %d runs", MaxSweepRuns)
		}
	}
	base, err := json.Marshal(n)
	if err != nil {
		return nil, errf("", "encoding normalized scenario: %v", err)
	}
	idx := make([]int, len(n.Sweep))
	seen := map[string]bool{}
	for p := 0; p < total; p++ {
		var doc any
		dec := json.NewDecoder(bytes.NewReader(base))
		dec.UseNumber()
		if err := dec.Decode(&doc); err != nil {
			return nil, errf("", "decoding normalized scenario: %v", err)
		}
		parts := make([]string, 0, len(n.Sweep))
		for a, ax := range n.Sweep {
			raw := ax.Values[idx[a]]
			var val any
			vdec := json.NewDecoder(bytes.NewReader(raw))
			vdec.UseNumber()
			if err := vdec.Decode(&val); err != nil {
				return nil, errf(pointerIndex(pointerIndex("/sweep", a)+"/values", idx[a]),
					"invalid JSON value: %s", jsonMsg(err))
			}
			if ferr := setPointer(doc, ax.Path, val); ferr != nil {
				return nil, errf(pointerIndex("/sweep", a)+"/path", "%s", ferr.Msg)
			}
			parts = append(parts, ax.Name+"-"+renderValue(raw))
		}
		key := strings.Join(parts, "-")
		pointJSON, err := json.Marshal(doc)
		if err != nil {
			return nil, errf("", "encoding sweep point %s: %v", key, err)
		}
		point, ferr := Decode(pointJSON)
		if ferr != nil {
			return nil, errf(ferr.Path, "sweep point %s: %s", key, ferr.Msg)
		}
		point.Sweep = nil
		pn, ferr := point.Normalize()
		if ferr != nil {
			return nil, errf(ferr.Path, "sweep point %s: %s", key, ferr.Msg)
		}
		if !nameRE.MatchString(key) {
			return nil, errf("/sweep", "run key %q (from the axis values) must match [a-zA-Z0-9._-]{1,64}", key)
		}
		if seen[key] {
			return nil, errf("/sweep", "duplicate run key %q: axis values must render distinct labels", key)
		}
		seen[key] = true
		cfg, run, ferr := pn.runConfig()
		if ferr != nil {
			return nil, errf(ferr.Path, "sweep point %s: %s", key, ferr.Msg)
		}
		c.Runs = append(c.Runs, Run{Key: key, Config: cfg, Workload: run})

		for a := len(idx) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(n.Sweep[a].Values) {
				break
			}
			idx[a] = 0
		}
	}
	return c, nil
}

// runConfig lowers a normalized, sweep-free scenario to the
// configuration one run executes and, for an application workload, its
// binding to that machine.
func (s *Scenario) runConfig() (config.Config, *workloads.Run, *FieldError) {
	m := s.Machine
	cfg := config.Default()
	cfg.Topology = m.Topology
	cfg.Router = *m.Router
	cfg.Routing = *m.Routing
	cfg.Memory = m.Memory
	cfg.Power = *m.Power
	cfg.Thermal = *m.Thermal
	cfg.AvgPacketFlits = m.AvgPacketFlits
	cfg.Traffic = append([]config.TrafficConfig(nil), s.Traffic...)
	cfg.Engine = config.EngineConfig{
		SyncPeriod:  s.Run.SyncPeriod,
		FastForward: s.Run.FastForward,
	}
	if s.Workload != nil {
		// Application workloads define their own span.
		cfg.WarmupCycles, cfg.AnalyzedCycles = 0, 0
	} else {
		cfg.WarmupCycles = *s.Run.WarmupCycles
		cfg.AnalyzedCycles = s.Run.AnalyzedCycles
	}
	if _, err := core.Plan(cfg); err != nil {
		// A traffic entry is the document's own; the rest is the machine.
		path := "/machine"
		if f := config.Field(err); strings.HasPrefix(f, "traffic/") {
			path = "/" + f
		} else if f != "" {
			path += "/" + f
		}
		return cfg, nil, errf(path, "%s", err.Error())
	}
	if s.Workload == nil {
		return cfg, nil, nil
	}
	run, err := s.Workload.spec().Bind(cfg.Topology.Nodes(), cfg.Memory != nil)
	if err != nil {
		return cfg, nil, workloadErr(err)
	}
	return cfg, run, nil
}

// renderValue turns one axis value into its run-key fragment: the JSON
// literal with every byte outside the key alphabet replaced by '-'
// (strings drop their quotes first).
func renderValue(raw json.RawMessage) string {
	t := strings.TrimSpace(string(raw))
	var unq string
	if json.Unmarshal(raw, &unq) == nil {
		t = unq
	}
	out := make([]byte, 0, len(t))
	for i := 0; i < len(t); i++ {
		b := t[i]
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '.', b == '_', b == '-':
			out = append(out, b)
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}
