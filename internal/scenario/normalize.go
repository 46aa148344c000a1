package scenario

import (
	"encoding/json"
	"strings"

	"hornet/internal/config"
	"hornet/internal/workloads"
)

// Normalize validates the document and returns its canonical form: the
// machine's overlay sections materialized against the baseline, kernel
// parameters folded with their defaults, and the run plan's windows made
// explicit. Two scenarios that describe the same machine normalize to
// the same document, and normalization is idempotent — both properties
// are what make scenarios content-addressable (and are locked in by the
// golden and fuzz tests).
func (s *Scenario) Normalize() (*Scenario, *FieldError) {
	if s.Version != Version {
		return nil, errf("/version", "unsupported scenario version %d (this daemon speaks version %d)",
			s.Version, Version)
	}
	if s.Name != "" && !nameRE.MatchString(s.Name) {
		return nil, errf("/name", "name must match [a-zA-Z0-9._-]{1,64}")
	}
	if s.Machine.Topology.Kind == "" {
		return nil, errf("/machine/topology", "topology is required")
	}
	hasTraffic, hasWorkload := len(s.Traffic) > 0, s.Workload != nil
	if hasTraffic == hasWorkload {
		return nil, errf("", "exactly one of traffic, workload must be set")
	}

	n := &Scenario{
		Version: Version,
		Name:    s.Name,
		Machine: s.Machine.effective(),
	}
	if hasTraffic {
		n.Traffic = append([]config.TrafficConfig(nil), s.Traffic...)
	}

	plan := Plan{}
	if s.Run != nil {
		plan = *s.Run
	}
	if hasWorkload {
		w, ferr := s.Workload.normalize()
		if ferr != nil {
			return nil, ferr
		}
		n.Workload = w
		if plan.WarmupCycles != nil {
			return nil, errf("/run/warmup_cycles",
				"application workloads define their own span; omit warmup_cycles")
		}
		if plan.AnalyzedCycles != 0 {
			return nil, errf("/run/analyzed_cycles",
				"application workloads define their own span; omit analyzed_cycles")
		}
		if plan.ShareWarmup {
			return nil, errf("/run/share_warmup",
				"share_warmup applies to synthetic-traffic scenarios; application workloads have no warmup prefix")
		}
	} else {
		if plan.WarmupCycles == nil {
			w := config.Default().WarmupCycles
			plan.WarmupCycles = &w
		} else if *plan.WarmupCycles < 0 {
			return nil, errf("/run/warmup_cycles", "must be >= 0, got %d", *plan.WarmupCycles)
		}
		if plan.AnalyzedCycles == 0 {
			plan.AnalyzedCycles = config.Default().AnalyzedCycles
		} else if plan.AnalyzedCycles < 0 {
			return nil, errf("/run/analyzed_cycles", "must be >= 1, got %d", plan.AnalyzedCycles)
		}
	}
	if plan.SyncPeriod == 0 {
		plan.SyncPeriod = 1
	} else if plan.SyncPeriod < 0 {
		return nil, errf("/run/sync_period", "must be >= 1, got %d", plan.SyncPeriod)
	}
	if plan.Seed == 0 {
		plan.Seed = DefaultSeed
	}
	if plan.Shards == 1 || plan.Shards < 0 {
		return nil, errf("/run/shards", "shards must be 0 (off) or >= 2, got %d", plan.Shards)
	}
	n.Run = &plan

	if ferr := s.checkSweep(); ferr != nil {
		return nil, ferr
	}
	if len(s.Sweep) > 0 {
		n.Sweep = make([]Axis, len(s.Sweep))
		for i, ax := range s.Sweep {
			n.Sweep[i] = Axis{Name: ax.Name, Path: ax.Path,
				Values: append([]json.RawMessage(nil), ax.Values...)}
		}
	}
	return n, nil
}

// normalize folds a workload against its registry entry.
func (w *Workload) normalize() (*Workload, *FieldError) {
	s, err := w.spec().Normalize()
	if err != nil {
		return nil, workloadErr(err)
	}
	return &Workload{Kernel: s.Kernel, Params: s.Params, MaxCycles: s.MaxCycles}, nil
}

func (w *Workload) spec() workloads.Spec {
	return workloads.Spec{Kernel: w.Kernel, Params: w.Params, MaxCycles: w.MaxCycles}
}

// workloadErr points a binding failure into the document: the memory
// rule is the machine's memory section's fault, a misfit the workload's.
func workloadErr(err *workloads.Error) *FieldError {
	switch err.Field {
	case "memory":
		return errf("/machine/memory", "%s", err.Msg)
	case "":
		return errf("/workload", "%s", err.Msg)
	}
	return errf("/workload/"+err.Field, "%s", err.Msg)
}

// checkSweep validates the axes structurally (names, paths, value
// shapes); the swept values themselves are validated per expanded point
// during Compile.
func (s *Scenario) checkSweep() *FieldError {
	seen := map[string]bool{}
	for i, ax := range s.Sweep {
		base := pointerIndex("/sweep", i)
		if !axisNameRE.MatchString(ax.Name) {
			return errf(base+"/name", "axis name must match [a-zA-Z0-9._-]{1,32}")
		}
		if seen[ax.Name] {
			return errf(base+"/name", "duplicate axis name %q", ax.Name)
		}
		seen[ax.Name] = true
		if !strings.HasPrefix(ax.Path, "/machine/") &&
			!strings.HasPrefix(ax.Path, "/traffic/") &&
			!strings.HasPrefix(ax.Path, "/workload/") {
			return errf(base+"/path",
				"axis paths must point under /machine, /traffic or /workload, got %q", ax.Path)
		}
		if _, ferr := splitPointer(ax.Path); ferr != nil {
			return errf(base+"/path", "%s", ferr.Msg)
		}
		if len(ax.Values) == 0 {
			return errf(base+"/values", "axis needs at least one value")
		}
		for j, v := range ax.Values {
			t := strings.TrimSpace(string(v))
			if t == "" || t[0] == '{' || t[0] == '[' {
				return errf(pointerIndex(base+"/values", j),
					"axis values must be JSON scalars (number, string or boolean)")
			}
		}
	}
	return nil
}

// effective materializes the machine against the baseline configuration:
// every overlay section becomes the full section the simulation will
// actually use.
func (m *Machine) effective() Machine {
	base := config.Default()
	out := Machine{Topology: m.Topology}

	r := base.Router
	if o := m.Router; o != nil {
		overrideInt(&r.VCsPerPort, o.VCsPerPort)
		overrideInt(&r.VCBufFlits, o.VCBufFlits)
		overrideInt(&r.LinkBandwidth, o.LinkBandwidth)
		overrideStr(&r.VCAlloc, o.VCAlloc)
		// Verbatim fields: false / 0 are themselves the baseline.
		r.Bidirectional = o.Bidirectional
		r.InjVCs = o.InjVCs
		r.InjBufFlits = o.InjBufFlits
	}
	out.Router = &r

	rt := base.Routing
	if o := m.Routing; o != nil {
		overrideStr(&rt.Algorithm, o.Algorithm)
		rt.StaticPaths = o.StaticPaths
	}
	out.Routing = &rt

	if o := m.Memory; o != nil {
		mem := *config.DefaultMemory()
		overrideInt(&mem.LineBytes, o.LineBytes)
		overrideInt(&mem.L1Sets, o.L1Sets)
		overrideInt(&mem.L1Ways, o.L1Ways)
		overrideInt(&mem.L1LatencyCyc, o.L1LatencyCyc)
		overrideStr(&mem.Protocol, o.Protocol)
		if o.Controllers != nil {
			mem.Controllers = o.Controllers
		}
		overrideInt(&mem.MCLatencyCyc, o.MCLatencyCyc)
		overrideInt(&mem.MCQueueDepth, o.MCQueueDepth)
		out.Memory = &mem
	}

	p := base.Power
	if o := m.Power; o != nil {
		overrideFloat(&p.BufReadPJ, o.BufReadPJ)
		overrideFloat(&p.BufWritePJ, o.BufWritePJ)
		overrideFloat(&p.XbarPJ, o.XbarPJ)
		overrideFloat(&p.ArbPJ, o.ArbPJ)
		overrideFloat(&p.LinkPJ, o.LinkPJ)
		overrideFloat(&p.LeakageMW, o.LeakageMW)
		overrideFloat(&p.ClockGHz, o.ClockGHz)
		overrideInt(&p.EpochCycles, o.EpochCycles)
	}
	out.Power = &p

	t := base.Thermal
	if o := m.Thermal; o != nil {
		overrideFloat(&t.AmbientC, o.AmbientC)
		overrideFloat(&t.RVerticalKPerW, o.RVerticalKPerW)
		overrideFloat(&t.RLateralKPerW, o.RLateralKPerW)
		overrideFloat(&t.CJPerK, o.CJPerK)
	}
	out.Thermal = &t

	out.AvgPacketFlits = m.AvgPacketFlits
	if out.AvgPacketFlits == 0 {
		out.AvgPacketFlits = base.AvgPacketFlits
	}
	return out
}

func overrideInt(dst *int, v int) {
	if v != 0 {
		*dst = v
	}
}

func overrideStr(dst *string, v string) {
	if v != "" {
		*dst = v
	}
}

func overrideFloat(dst *float64, v float64) {
	if v != 0 {
		*dst = v
	}
}
