package service

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"strings"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/experiments"
	"hornet/internal/mips"
	scen "hornet/internal/scenario"
	"hornet/internal/sim"
	"hornet/internal/stats"
	"hornet/internal/sweep"
	"hornet/internal/workloads"
)

// defaultSeed matches the experiment harness default, so a figure
// submitted with no seed reproduces the CLI's documents.
const defaultSeed = 0x5EED0A11

var nameRE = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,64}$`)

// scenario is a validated, normalized submission: everything the
// scheduler needs to execute the job, plus the content-address (name,
// hash) of its result document. It is the ONE internal representation
// every submission surface compiles into — the legacy config/figure/
// batch/mips kinds directly, and declarative scenario documents via
// internal/scenario — so there is exactly one execution path
// (executeScenario) no matter how a job was described.
type scenario struct {
	kind string
	name string // document name (also the cache key prefix)
	hash string // sweep.ConfigHash over the identity
	seed uint64

	// surface is the submission surface the client used ("scenario" for
	// declarative documents); kind stays the execution/identity kind the
	// submission lowered to, so cache hashes, sharding rules and fleet
	// dispatch are oblivious to how the job was written. Empty means
	// surface == kind.
	surface string

	// cacheable is false for wall-clock experiments (Serial figures):
	// their documents carry timing fields and are never byte-stable.
	cacheable bool

	// config/batch scenarios: one spec per sweep run. The scheduler
	// compiles them into sweep items against its execution environment
	// (warmup cache, checkpoint settings).
	runs []runSpec
	// shareWarmup derives run seeds from warmup-prefix groups so runs
	// agreeing on everything but measured-phase knobs fork from one
	// warmup snapshot.
	shareWarmup bool
	// shards is the space-parallel member count of a sharded submission
	// (>= 2), 0 for ordinary scenarios. Like Workers it never enters the
	// scenario hash: sharding cannot change result bytes.
	shards int

	// figure scenarios: the registry entry and its scale options.
	fig     experiments.Figure
	figOpts experiments.Options
}

// surfaceKind is the kind reported to clients (JobInfo, validate).
func (sc *scenario) surfaceKind() string {
	if sc.surface != "" {
		return sc.surface
	}
	return sc.kind
}

// runSpec is one config/batch/mips simulation: a stable key, the
// normalized configuration it runs, and — for share_warmup scenarios —
// the warmup-group seed every run in the group shares (0 = the sweep's
// default per-key derivation). The explicit seed flows through
// sweep.Item.Seed so the emitted document records the seed each run
// actually used. mips, when set, switches the run's frontend from
// synthetic traffic to an application workload (lower).
type runSpec struct {
	key    string
	weight int
	seed   uint64
	cfg    config.Config
	mips   *MipsSpec
}

// groupSeed derives the shared engine seed for a warmup-prefix group:
// runs agreeing on everything but measured-phase knobs must evolve —
// and snapshot — identically through the warmup, so their seed derives
// from the group identity instead of the item key.
func groupSeed(jobSeed uint64, cfg config.Config) uint64 {
	group := core.WarmupGroupKey(cfg, uint64(cfg.WarmupCycles))
	return sim.DeriveSeed(jobSeed, "warmup-group:"+group)
}

// buildScenario validates a submission and compiles it into a runnable
// scenario. Every rejection is an *APIError suitable for a 4xx response.
func buildScenario(req SubmitRequest) (*scenario, *APIError) {
	var set []string
	for _, f := range []struct {
		field string
		set   bool
	}{
		{"/config", req.Config != nil}, {"/figure", req.Figure != ""}, {"/batch", len(req.Batch) > 0},
		{"/mips", req.Mips != nil}, {"/scenario", len(req.Scenario) > 0},
	} {
		if f.set {
			set = append(set, f.field)
		}
	}
	if len(set) != 1 {
		// Point at the surplus spelling, or — with none — at the one new
		// clients should write.
		field := "/scenario"
		if len(set) > 1 {
			field = set[1]
		}
		return nil, &APIError{Code: CodeInvalidRequest, Field: field,
			Message: "exactly one of config, figure, batch, mips, scenario must be set"}
	}
	if req.Name != "" && !nameRE.MatchString(req.Name) {
		return nil, &APIError{Code: CodeInvalidRequest, Field: "/name",
			Message: "name must match [a-zA-Z0-9._-]{1,64}"}
	}
	if req.Workers < 0 {
		return nil, &APIError{Code: CodeInvalidRequest, Field: "/workers",
			Message: "workers must be >= 0"}
	}
	seed := req.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	var (
		sc     *scenario
		apiErr *APIError
	)
	switch {
	case req.Config != nil:
		sc, apiErr = buildConfigScenario(req, seed)
	case req.Figure != "":
		sc, apiErr = buildFigureScenario(req, seed)
	case req.Mips != nil:
		sc, apiErr = buildMipsScenario(req, seed)
	case len(req.Scenario) > 0:
		sc, apiErr = buildScenarioScenario(req)
	default:
		sc, apiErr = buildBatchScenario(req, seed)
	}
	if apiErr != nil {
		return nil, apiErr
	}
	shards := req.Shards
	if sc.shards != 0 {
		// Declarative scenarios carry sharding in their run plan; the
		// builder stashed it for this validation pass.
		shards, sc.shards = sc.shards, 0
	}
	if apiErr := applyShards(sc, shards); apiErr != nil {
		return nil, apiErr
	}
	return sc, nil
}

// applyShards validates a space-parallel request against the compiled
// scenario. Sharding splits ONE simulation's tile grid across members,
// so only single-run kinds qualify, the engine must sync every cycle
// (boundary flits are exchanged at sync points; a coarser cadence would
// let a flit cross a shard boundary unobserved), and warmup sharing is
// meaningless for a single run.
func applyShards(sc *scenario, shards int) *APIError {
	if shards == 0 {
		return nil
	}
	reject := func(format string, args ...any) *APIError {
		field := "/shards"
		if sc.surface == KindScenario {
			field = "/scenario/run/shards"
		}
		return &APIError{Code: CodeInvalidRequest, Field: field, Message: fmt.Sprintf(format, args...)}
	}
	if shards < 2 {
		return reject("shards must be 0 (off) or >= 2")
	}
	if sc.kind != KindConfig && sc.kind != KindMips {
		return reject("shards applies to config and mips jobs (one simulation split across members)")
	}
	if sc.shareWarmup {
		return reject("shards and share_warmup are mutually exclusive")
	}
	cfg := sc.runs[0].cfg
	if cfg.Engine.SyncPeriod > 1 {
		return reject("shards requires sync_period 1 (boundary traffic is exchanged every cycle)")
	}
	if nodes := cfg.Topology.Nodes(); shards > nodes {
		return reject("shards (%d) must not exceed the topology's %d nodes", shards, nodes)
	}
	sc.shards = shards
	return nil
}

// legacyMipsKernel marks the pre-registry kernels whose MipsSpec wire
// format (dedicated rounds/q/b fields, params empty) is frozen: their
// normalized identity — and therefore their cache hashes — must stay
// byte-identical to what earlier daemons computed.
func legacyMipsKernel(name string) bool {
	switch name {
	case "pingpong", "shared-pingpong", "cannon":
		return true
	}
	return false
}

// mipsParams projects a normalized spec onto the registry's parameter
// space: legacy kernels from their dedicated fields, registry kernels
// from Params directly.
func mipsParams(m *MipsSpec) workloads.Params {
	if legacyMipsKernel(m.Workload) {
		return workloads.Params{"rounds": int64(m.Rounds), "q": int64(m.Q), "b": int64(m.B)}
	}
	return m.Params
}

// mipsWorkloadSource generates the assembly for a validated spec.
// nodes is the topology's node count (the shared ping-pong partner is
// the last node).
func mipsWorkloadSource(m *MipsSpec, nodes int) string {
	k, ok := workloads.Lookup(m.Workload)
	if !ok {
		panic("service: unvalidated mips workload " + m.Workload)
	}
	return k.Source(mipsParams(m), nodes)
}

// mipsShared reports whether a validated spec runs on the coherent-
// memory fabric (AttachMIPSShared) rather than private per-core memory.
func mipsShared(m *MipsSpec) bool {
	k, ok := workloads.Lookup(m.Workload)
	return ok && k.Shared
}

// normalizeMips validates an application-workload spec and folds in its
// defaults. The normalized spec is the cache identity, so {"rounds": 0}
// and {"rounds": 100} hash identically. It is shared by the legacy mips
// kind and the declarative scenario path — one set of rules, one
// identity, which is what makes a scenario expressing a legacy workload
// cache under the legacy key.
func normalizeMips(m MipsSpec) (MipsSpec, *APIError) {
	k, ok := workloads.Lookup(m.Workload)
	if !ok {
		return m, &APIError{Code: CodeInvalidRequest, Field: "/mips/workload", Message: fmt.Sprintf(
			"mips: unknown workload %q (%s)", m.Workload, strings.Join(workloads.Names(), ", "))}
	}
	if legacyMipsKernel(m.Workload) {
		if len(m.Params) > 0 {
			return m, &APIError{Code: CodeInvalidRequest, Field: "/mips/params", Message: fmt.Sprintf(
				"mips: %s predates the parameter registry; use the rounds/q/b fields, not params", m.Workload)}
		}
		if m.Rounds <= 0 {
			m.Rounds = 100
		}
		if m.Q <= 0 {
			m.Q = 2
		}
		if m.B <= 0 {
			m.B = 4
		}
		// Bound the workload parameters: they size in-memory structures
		// (cannon blocks are 4*b*b bytes each) and run length, so an
		// unbounded submission could exhaust the daemon at validation time.
		if m.Rounds > 1_000_000 {
			return m, &APIError{Code: CodeInvalidRequest, Field: "/mips/rounds",
				Message: "mips: rounds must be <= 1000000"}
		}
		if m.Q > 64 || m.B > 64 {
			return m, &APIError{Code: CodeInvalidRequest, Field: "/mips/q",
				Message: "mips: cannon q and b must be <= 64"}
		}
	} else {
		if m.Rounds != 0 || m.Q != 0 || m.B != 0 {
			return m, &APIError{Code: CodeInvalidRequest, Field: "/mips/params", Message: fmt.Sprintf(
				"mips: %s is parameterized via params, not the rounds/q/b fields", m.Workload)}
		}
		p, err := k.Normalize(m.Params)
		if err != nil {
			return m, &APIError{Code: CodeInvalidRequest, Field: "/mips/params",
				Message: "mips: " + err.Error()}
		}
		m.Params = p
	}
	if m.MaxCycles == 0 {
		m.MaxCycles = 10_000_000
	}
	if m.MaxCycles > 1_000_000_000 {
		return m, &APIError{Code: CodeInvalidRequest, Field: "/mips/max_cycles",
			Message: "mips: max_cycles must be <= 1000000000"}
	}
	if err := m.Config.Validate(); err != nil {
		return m, &APIError{Code: CodeInvalidConfig, Field: "/mips/config",
			Message: "mips: " + err.Error()}
	}
	if len(m.Config.Traffic) > 0 {
		return m, &APIError{Code: CodeInvalidConfig, Field: "/mips/config/traffic",
			Message: "mips: scenario takes no synthetic traffic (the workload is the traffic)"}
	}
	nodes := m.Config.Topology.Nodes()
	if err := k.Validate(mipsParams(&m), nodes); err != nil {
		return m, &APIError{Code: CodeInvalidConfig, Field: "/mips/config",
			Message: "mips: " + err.Error()}
	}
	if k.Shared && m.Config.Memory == nil {
		return m, &APIError{Code: CodeInvalidConfig, Field: "/mips/config/memory", Message: fmt.Sprintf(
			"mips: %s needs config.memory (the coherent fabric it runs on)", m.Workload)}
	}
	if !k.Shared && m.Config.Memory != nil {
		return m, &APIError{Code: CodeInvalidConfig, Field: "/mips/config/memory",
			Message: "mips: " + m.Workload + " uses private per-core memory; omit config.memory"}
	}
	// Catch assembly errors at submission time (4xx), not mid-job.
	if _, err := mips.Assemble(mipsWorkloadSource(&m, nodes)); err != nil {
		return m, &APIError{Code: CodeInvalidConfig, Field: "/mips/workload",
			Message: "mips: workload does not assemble: " + err.Error()}
	}
	m.Config = normalize(m.Config)
	// The driver-level cycle windows do not apply to application runs:
	// the workload defines its own span (halt or max_cycles).
	m.Config.WarmupCycles, m.Config.AnalyzedCycles = 0, 0
	return m, nil
}

// buildMipsScenario validates an application-workload submission.
func buildMipsScenario(req SubmitRequest, seed uint64) (*scenario, *APIError) {
	if req.ShareWarmup {
		return nil, &APIError{Code: CodeInvalidRequest, Field: "/share_warmup",
			Message: "share_warmup applies to config/batch jobs; mips runs have no warmup prefix"}
	}
	m, apiErr := normalizeMips(*req.Mips)
	if apiErr != nil {
		return nil, apiErr
	}
	name := req.Name
	if name == "" {
		name = "mips-" + m.Workload
	}
	return &scenario{
		kind:      KindMips,
		name:      name,
		hash:      scenarioHash("mips", name, m, seed, false),
		seed:      seed,
		cacheable: true,
		runs:      []runSpec{{key: name, weight: req.Workers, cfg: m.Config, mips: &m}},
	}, nil
}

// mipsBatchItem is the identity record of one workload run in a
// multi-run scenario: the workload analogue of BatchItem, hashed under
// the "scenario" label (no legacy kind ever produced this shape).
type mipsBatchItem struct {
	Key  string   `json:"key"`
	Mips MipsSpec `json:"mips"`
}

// scenarioMips lowers one compiled scenario run onto the mips wire
// spec. Legacy kernels map onto the frozen rounds/q/b fields (params
// stays empty), so the normalized identity — and therefore the cache
// hash — is byte-identical to the legacy mips kind's.
func scenarioMips(r scen.Run) MipsSpec {
	m := MipsSpec{Workload: r.Workload.Kernel, MaxCycles: r.Workload.MaxCycles, Config: r.Config}
	if legacyMipsKernel(m.Workload) {
		m.Rounds = int(r.Workload.Params.Get("rounds", 0))
		m.Q = int(r.Workload.Params.Get("q", 0))
		m.B = int(r.Workload.Params.Get("b", 0))
	} else {
		m.Params = r.Workload.Params
	}
	return m
}

// buildScenarioScenario compiles a declarative scenario document
// (internal/scenario) into the shared internal representation. For the
// shapes a legacy kind can express, the lowering reproduces that kind's
// cache identity exactly — a scenario describing the pingpong machine
// hashes (and hits the cache) as the equivalent mips submission — while
// shapes the legacy API could not express (workload sweeps) hash under
// the "scenario" label.
func buildScenarioScenario(req SubmitRequest) (*scenario, *APIError) {
	reject := func(field, what string) *APIError {
		return &APIError{Code: CodeInvalidRequest, Field: field, Message: fmt.Sprintf(
			"scenario documents carry their own %s; omit the request-level field", what)}
	}
	if req.Name != "" {
		return nil, reject("/name", "name")
	}
	if req.Seed != 0 {
		return nil, reject("/seed", "seed (run.seed)")
	}
	if req.Shards != 0 {
		return nil, reject("/shards", "sharding (run.shards)")
	}
	if req.ShareWarmup {
		return nil, reject("/share_warmup", "warmup sharing (run.share_warmup)")
	}
	doc, ferr := scen.Decode(req.Scenario)
	if ferr != nil {
		return nil, &APIError{Code: CodeInvalidScenario, Field: "/scenario" + ferr.Path, Message: ferr.Msg}
	}
	comp, ferr := scen.Compile(doc)
	if ferr != nil {
		return nil, &APIError{Code: CodeInvalidScenario, Field: "/scenario" + ferr.Path, Message: ferr.Msg}
	}
	seed := comp.Seed
	workload := comp.Normalized.Workload != nil
	runs := make([]runSpec, 0, len(comp.Runs))
	for _, r := range comp.Runs {
		if r.Workload != nil {
			m, apiErr := normalizeMips(scenarioMips(r))
			if apiErr != nil {
				// The compile step already validated the kernel against the
				// machine; anything surfacing here (e.g. an assembly failure)
				// is still the workload's fault, so point there.
				apiErr.Field = "/scenario/workload"
				return nil, apiErr
			}
			runs = append(runs, runSpec{key: r.Key, weight: req.Workers, cfg: m.Config, mips: &m})
			continue
		}
		cfg := normalize(r.Config)
		spec := runSpec{key: r.Key, weight: req.Workers, cfg: cfg}
		if comp.ShareWarmup {
			spec.seed = groupSeed(seed, cfg)
		}
		runs = append(runs, spec)
	}
	name := comp.Name
	sc := &scenario{
		surface:     KindScenario,
		seed:        seed,
		cacheable:   true,
		shareWarmup: comp.ShareWarmup,
		shards:      comp.Shards,
		runs:        runs,
	}
	switch {
	case workload && len(runs) == 1:
		if name == "" {
			name = "mips-" + runs[0].mips.Workload
		}
		sc.kind, sc.name = KindMips, name
		sc.hash = scenarioHash("mips", name, *runs[0].mips, seed, false)
	case !workload && len(runs) == 1:
		if name == "" {
			name = KindConfig
		}
		sc.kind, sc.name = KindConfig, name
		sc.hash = scenarioHash("config", name, runs[0].cfg, seed, comp.ShareWarmup)
	case !workload:
		if name == "" {
			name = KindBatch
		}
		identity := make([]BatchItem, len(runs))
		for i, r := range runs {
			identity[i] = BatchItem{Key: r.key, Config: r.cfg}
		}
		sc.kind, sc.name = KindBatch, name
		sc.hash = scenarioHash("batch", name, identity, seed, comp.ShareWarmup)
	default: // workload sweep: no legacy kind to match, own identity
		if name == "" {
			name = KindScenario
		}
		identity := make([]mipsBatchItem, len(runs))
		for i, r := range runs {
			identity[i] = mipsBatchItem{Key: r.key, Mips: *r.mips}
		}
		sc.kind, sc.name = KindBatch, name
		sc.hash = scenarioHash("scenario", name, identity, seed, false)
	}
	if len(runs) == 1 {
		// Single-run scenarios label their one run by the job name, the
		// same convention the legacy kinds use.
		runs[0].key = name
	}
	return sc, nil
}

// checkRunnable validates one submitted simulation configuration beyond
// config.Validate: the service runs synthetic-traffic simulations with a
// bounded measured window, so both must be present. field is the
// configuration's pointer in the request; where prefixes the messages.
func checkRunnable(c *config.Config, field, where string) *APIError {
	if err := c.Validate(); err != nil {
		return &APIError{Code: CodeInvalidConfig, Field: field, Message: where + err.Error()}
	}
	if len(c.Traffic) == 0 {
		return &APIError{Code: CodeInvalidConfig, Field: field + "/traffic",
			Message: where + "config: scenario needs at least one synthetic traffic source"}
	}
	if c.AnalyzedCycles < 1 {
		return &APIError{Code: CodeInvalidConfig, Field: field + "/analyzed_cycles",
			Message: where + "config: analyzed_cycles must be >= 1"}
	}
	if c.WarmupCycles < 0 {
		return &APIError{Code: CodeInvalidConfig, Field: field + "/warmup_cycles",
			Message: where + "config: warmup_cycles must be >= 0"}
	}
	return nil
}

// normalize strips the execution-only engine fields from a copy of the
// configuration: worker count never changes results (the engine is
// deterministic across workers) and the engine seed is overridden by the
// job's derived per-run seed, so neither may enter the cache identity.
func normalize(c config.Config) config.Config {
	c.Engine.Workers = 0
	c.Engine.Seed = 0
	return c
}

// scenarioHash computes the job identity. share_warmup changes per-run
// seeding, so it must fork the identity; the extra label keeps hashes
// of share_warmup=false submissions identical to what earlier daemons
// produced (their cached documents stay valid).
func scenarioHash(kind, name string, identity any, seed uint64, shareWarmup bool) string {
	if shareWarmup {
		return sweep.ConfigHash("service/"+kind, name, identity, seed, "share_warmup")
	}
	return sweep.ConfigHash("service/"+kind, name, identity, seed)
}

func buildConfigScenario(req SubmitRequest, seed uint64) (*scenario, *APIError) {
	if apiErr := checkRunnable(req.Config, "/config", ""); apiErr != nil {
		return nil, apiErr
	}
	name := req.Name
	if name == "" {
		name = KindConfig
	}
	norm := normalize(*req.Config)
	spec := runSpec{key: name, weight: req.Workers, cfg: norm}
	if req.ShareWarmup {
		spec.seed = groupSeed(seed, norm)
	}
	sc := &scenario{
		kind:        KindConfig,
		name:        name,
		hash:        scenarioHash("config", name, norm, seed, req.ShareWarmup),
		seed:        seed,
		cacheable:   true,
		shareWarmup: req.ShareWarmup,
		runs:        []runSpec{spec},
	}
	return sc, nil
}

func buildBatchScenario(req SubmitRequest, seed uint64) (*scenario, *APIError) {
	name := req.Name
	if name == "" {
		name = KindBatch
	}
	identity := make([]BatchItem, 0, len(req.Batch))
	runs := make([]runSpec, 0, len(req.Batch))
	seen := map[string]bool{}
	for i := range req.Batch {
		it := &req.Batch[i]
		if !nameRE.MatchString(it.Key) {
			return nil, &APIError{Code: CodeInvalidRequest, Field: fmt.Sprintf("/batch/%d/key", i),
				Message: fmt.Sprintf("batch[%d]: key must match [a-zA-Z0-9._-]{1,64}", i)}
		}
		if seen[it.Key] {
			return nil, &APIError{Code: CodeInvalidRequest, Field: fmt.Sprintf("/batch/%d/key", i),
				Message: fmt.Sprintf("batch[%d]: duplicate key %q", i, it.Key)}
		}
		seen[it.Key] = true
		if apiErr := checkRunnable(&it.Config, fmt.Sprintf("/batch/%d/config", i),
			fmt.Sprintf("batch[%d] (%s): ", i, it.Key)); apiErr != nil {
			return nil, apiErr
		}
		norm := normalize(it.Config)
		identity = append(identity, BatchItem{Key: it.Key, Config: norm})
		spec := runSpec{key: it.Key, weight: req.Workers, cfg: norm}
		if req.ShareWarmup {
			spec.seed = groupSeed(seed, norm)
		}
		runs = append(runs, spec)
	}
	return &scenario{
		kind:        KindBatch,
		name:        name,
		hash:        scenarioHash("batch", name, identity, seed, req.ShareWarmup),
		seed:        seed,
		cacheable:   true,
		shareWarmup: req.ShareWarmup,
		runs:        runs,
	}, nil
}

func buildFigureScenario(req SubmitRequest, seed uint64) (*scenario, *APIError) {
	fig, ok := experiments.FigureByName(req.Figure)
	if !ok {
		return nil, &APIError{Code: CodeUnknownFigure, Field: "/figure",
			Message: fmt.Sprintf("unknown figure %q", req.Figure)}
	}
	if req.Tiny && req.Full {
		return nil, &APIError{Code: CodeInvalidRequest, Field: "/full",
			Message: "tiny and full are mutually exclusive"}
	}
	o := experiments.Options{
		Tiny:     req.Tiny,
		Full:     req.Full,
		Seed:     seed,
		Parallel: req.Workers,
	}
	// A figure job adopts the registry document's own identity — the
	// figure name and its registry config hash — so JobInfo, the /result
	// ETag, and the document body all agree, and the disk cache shares
	// hornet-exp's exact name-hash.json entries. A custom Name is
	// rejected rather than silently diverging from the document.
	if req.Name != "" {
		return nil, &APIError{Code: CodeInvalidRequest, Field: "/name",
			Message: "figure jobs are named by the figure itself; omit name"}
	}
	if req.ShareWarmup {
		return nil, &APIError{Code: CodeInvalidRequest, Field: "/share_warmup",
			Message: "share_warmup applies to config/batch jobs; figures manage their own warmup sharing"}
	}
	return &scenario{
		kind:      KindFigure,
		name:      fig.Name,
		hash:      fig.ConfigHash(o),
		seed:      seed,
		cacheable: !fig.Serial, // wall-clock documents are never byte-stable
		fig:       fig,
		figOpts:   o,
	}, nil
}

// cancelStop adapts a context to the engine's stop-function interface.
func cancelStop(ctx context.Context) func(cycle uint64) bool {
	return func(uint64) bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
}

// summarize projects the aggregate statistics onto the wire record.
func summarize(s stats.Summary, nodes int, cycles, skipped uint64) RunStats {
	rs := RunStats{
		Nodes:            nodes,
		Cycles:           cycles,
		SkippedCycles:    skipped,
		FlitsInjected:    s.FlitsInjected,
		FlitsDelivered:   s.FlitsDelivered,
		PacketsInjected:  s.PacketsInjected,
		PacketsDelivered: s.PacketsDelivered,
		AvgFlitLatency:   s.AvgFlitLatency,
		AvgPacketLatency: s.AvgPacketLatency,
		MaxPacketLatency: s.MaxPacketLatency,
		AvgHops:          s.AvgHops,
	}
	if total := cycles + skipped; nodes > 0 && total > 0 {
		rs.Throughput = float64(s.FlitsDelivered) / float64(nodes) / float64(total)
	}
	return rs
}

// encodeDocument renders a document to the exact bytes the API serves
// and the cache stores — one canonical encoding, so cold and cached
// responses are byte-identical.
func encodeDocument(doc sweep.Document) ([]byte, error) {
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
