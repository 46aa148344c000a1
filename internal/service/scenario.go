package service

import (
	"bytes"
	"context"
	"fmt"
	"regexp"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/experiments"
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
// scheduler needs to execute the job, plus the content address (name,
// hash) of its result document. Every request spelling fills in what is
// its own and one function (seal) makes it a job; nothing downstream
// asks how the job was written — what executes differently is data
// (fig, single, runs).
type scenario struct {
	// surface is the spelling the client wrote ("config", "figure",
	// "batch", "mips", "scenario"): the kind JobInfo and validate report.
	surface string
	// taskKind is backend.Task.Kind, the wire's word for the shape of the
	// run list. Neither side of the wire reads it; it is written so
	// assignments stay byte-for-byte what earlier daemons sent.
	taskKind string
	name     string // document name (also the cache key prefix)
	hash     string // sweep.ConfigHash over the identity
	seed     uint64

	// cacheable is false for wall-clock experiments (Serial figures):
	// their documents carry timing fields and are never byte-stable.
	cacheable bool

	// runs is one spec per sweep run. The scheduler compiles them into
	// sweep items against its execution environment (warmup cache,
	// checkpoint settings).
	runs []runSpec
	// single marks ONE simulation — a config, a mips run, a scenario
	// document that compiles to exactly one run; never a batch of one.
	// Only a single simulation shards, and its run's failure is the job's.
	single bool
	// shareWarmup derives run seeds from warmup-prefix groups so runs
	// agreeing on everything but measured-phase knobs fork from one
	// warmup snapshot.
	shareWarmup bool
	// shards is the submission's shards field: 0, or a request for that
	// many engine workers on one host (see weight). Like Workers it never
	// enters the scenario hash: it cannot change result bytes.
	shards int
	// normalized is the canonical form of a scenario document (validate
	// shows it to the client); nil for the other spellings.
	normalized *scen.Scenario

	// fig, when non-nil, makes the job a figure: the registry entry runs
	// in place of a run list, and only on this host.
	fig     *experiments.Figure
	figOpts experiments.Options
}

// runSpec is one config/batch/mips simulation: a stable key, the
// normalized configuration it runs, and — for share_warmup scenarios —
// the warmup-group seed every run in the group shares (0 = the sweep's
// default per-key derivation). The explicit seed flows through
// sweep.Item.Seed so the emitted document records the seed each run
// actually used. work, when set, switches the run's frontend from
// synthetic traffic to an application workload (lower); mips is then its
// identity (workloadRun).
type runSpec struct {
	key    string
	weight int
	seed   uint64
	cfg    config.Config
	mips   *MipsSpec
	work   *workloads.Run
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
	// A spelling decodes and validates its own fields and leaves behind
	// only what the client asked for: the runs (key, cfg, mips), the
	// single bit, and — a scenario document, which carries its own — the
	// name, seed, share_warmup and shards that are request fields here.
	sc := &scenario{name: req.Name, seed: req.Seed, shareWarmup: req.ShareWarmup, shards: req.Shards}
	var apiErr *APIError
	switch {
	case req.Config != nil:
		sc.surface, apiErr = KindConfig, configSpelling(sc, req)
	case req.Figure != "":
		sc.surface, apiErr = KindFigure, figureSpelling(sc, req)
	case req.Mips != nil:
		sc.surface, apiErr = KindMips, mipsSpelling(sc, req)
	case len(req.Scenario) > 0:
		sc.surface, apiErr = KindScenario, scenarioSpelling(sc, req)
	default:
		sc.surface, apiErr = KindBatch, batchSpelling(sc, req)
	}
	if apiErr == nil {
		apiErr = seal(sc, req.Workers)
	}
	if apiErr != nil {
		return nil, apiErr
	}
	return sc, nil
}

// seal makes what a spelling left behind a job: it defaults the seed and
// the name, validates the shard request, weights the runs, derives the
// warmup-group seeds and — the one place a job acquires its content
// address — computes the identity from the SHAPE of the run list, not
// from the spelling that produced it:
//
//	one traffic run     "config"    config.Config
//	one workload run    "mips"      MipsSpec
//	traffic runs        "batch"     []BatchItem
//	workload runs       "scenario"  []mipsBatchItem
//
// so a scenario document saying what a legacy spelling could say hashes
// — and hits the cache — as that spelling always has, and every hash an
// earlier daemon computed stays addressable.
func seal(sc *scenario, workers int) *APIError {
	if sc.seed == 0 {
		sc.seed = defaultSeed
	}
	if apiErr := checkShards(sc); apiErr != nil {
		return apiErr
	}
	if sc.fig != nil {
		// A figure job adopts the registry document's own identity — the
		// figure name and its registry config hash — so JobInfo, the
		// /result ETag, and the document body all agree, and the disk cache
		// shares hornet-exp's exact name-hash.json entries.
		sc.figOpts.Seed, sc.figOpts.Parallel = sc.seed, workers
		sc.taskKind, sc.name, sc.hash = KindFigure, sc.fig.Name, sc.fig.ConfigHash(sc.figOpts)
		sc.cacheable = !sc.fig.Serial // wall-clock documents are never byte-stable
		return nil
	}
	var (
		runs     = sc.runs
		workload = runs[0].mips != nil // a run list is all traffic or all workload
		label    string
		identity any
	)
	switch {
	case sc.single && !workload:
		label, identity = KindConfig, runs[0].cfg
	case sc.single:
		label, identity = KindMips, *runs[0].mips
		if sc.name == "" {
			sc.name = "mips-" + runs[0].mips.Workload
		}
	case !workload:
		items := make([]BatchItem, len(runs))
		for i, r := range runs {
			items[i] = BatchItem{Key: r.key, Config: r.cfg}
		}
		label, identity = KindBatch, items
	default: // no legacy spelling reaches this shape, so it has its own label
		items := make([]mipsBatchItem, len(runs))
		for i, r := range runs {
			items[i] = mipsBatchItem{Key: r.key, Mips: *r.mips}
		}
		label, identity = KindScenario, items
	}
	if sc.name == "" {
		sc.name = label
	}
	sc.hash = scenarioHash(label, sc.name, identity, sc.seed, sc.shareWarmup)
	sc.cacheable = true
	// On the task wire a run list has always been a "batch", whatever it
	// hashes under.
	sc.taskKind = label
	if !sc.single {
		sc.taskKind = KindBatch
	}
	for i := range runs {
		runs[i].weight = sc.weight(workers)
		if sc.shareWarmup {
			runs[i].seed = groupSeed(sc.seed, runs[i].cfg)
		}
	}
	if sc.single {
		// A single simulation's one run is labelled by the job name.
		runs[0].key = sc.name
	}
	return nil
}

// scenarioHash computes the job identity. share_warmup changes per-run
// seeding, so it must fork the identity; the extra label keeps hashes
// of share_warmup=false submissions identical to what earlier daemons
// produced (their cached documents stay valid).
func scenarioHash(label, name string, identity any, seed uint64, shareWarmup bool) string {
	if shareWarmup {
		return sweep.ConfigHash("service/"+label, name, identity, seed, "share_warmup")
	}
	return sweep.ConfigHash("service/"+label, name, identity, seed)
}

// weight is the engine-worker request of the job's runs: the workers
// field, or one engine worker per shard when shards asks for more. A
// sharded simulation is one engine in one process, like any other.
func (sc *scenario) weight(workers int) int { return max(workers, sc.shards) }

// checkShards validates the shards field. Its rules are the ones the
// space-parallel member path needed — one simulation, sync period 1, no
// warmup sharing, no more shards than nodes — kept so that every
// submission keeps the answer it always got.
func checkShards(sc *scenario) *APIError {
	if sc.shards == 0 {
		return nil
	}
	reject := func(format string, args ...any) *APIError {
		field := "/shards"
		if sc.surface == KindScenario { // the document's own field
			field = "/scenario/run/shards"
		}
		return &APIError{Code: CodeInvalidRequest, Field: field, Message: fmt.Sprintf(format, args...)}
	}
	if sc.shards < 2 {
		return reject("shards must be 0 (off) or >= 2")
	}
	if !sc.single {
		return reject("shards applies to config and mips jobs (one simulation split across members)")
	}
	if sc.shareWarmup {
		return reject("shards and share_warmup are mutually exclusive")
	}
	cfg := sc.runs[0].cfg
	if cfg.Engine.SyncPeriod > 1 {
		return reject("shards requires sync_period 1 (boundary traffic is exchanged every cycle)")
	}
	if nodes := cfg.Topology.Nodes(); sc.shards > nodes {
		return reject("shards (%d) must not exceed the topology's %d nodes", sc.shards, nodes)
	}
	return nil
}

// configSpelling: one synthetic-traffic simulation.
func configSpelling(sc *scenario, req SubmitRequest) *APIError {
	if apiErr := checkRunnable(req.Config, "/config", ""); apiErr != nil {
		return apiErr
	}
	sc.single = true
	sc.runs = []runSpec{{cfg: normalize(*req.Config)}}
	return nil
}

// batchSpelling: several keyed configurations as one sweep, bounded like
// a scenario document's.
func batchSpelling(sc *scenario, req SubmitRequest) *APIError {
	if len(req.Batch) > scen.MaxSweepRuns {
		return &APIError{Code: CodeInvalidRequest, Field: "/batch",
			Message: fmt.Sprintf("batch has more than %d runs", scen.MaxSweepRuns)}
	}
	seen := map[string]bool{}
	sc.runs = make([]runSpec, 0, len(req.Batch))
	for i := range req.Batch {
		it := &req.Batch[i]
		if !nameRE.MatchString(it.Key) {
			return &APIError{Code: CodeInvalidRequest, Field: fmt.Sprintf("/batch/%d/key", i),
				Message: fmt.Sprintf("batch[%d]: key must match [a-zA-Z0-9._-]{1,64}", i)}
		}
		if seen[it.Key] {
			return &APIError{Code: CodeInvalidRequest, Field: fmt.Sprintf("/batch/%d/key", i),
				Message: fmt.Sprintf("batch[%d]: duplicate key %q", i, it.Key)}
		}
		seen[it.Key] = true
		if apiErr := checkRunnable(&it.Config, fmt.Sprintf("/batch/%d/config", i),
			fmt.Sprintf("batch[%d] (%s): ", i, it.Key)); apiErr != nil {
			return apiErr
		}
		sc.runs = append(sc.runs, runSpec{key: it.Key, cfg: normalize(it.Config)})
	}
	return nil
}

// mipsSpelling: one application workload in the frozen MipsSpec form.
func mipsSpelling(sc *scenario, req SubmitRequest) *APIError {
	if req.ShareWarmup {
		return &APIError{Code: CodeInvalidRequest, Field: "/share_warmup",
			Message: "share_warmup applies to config/batch jobs; mips runs have no warmup prefix"}
	}
	m := req.Mips
	spec, err := workloads.Thaw(m.Workload, workloads.Frozen{Rounds: m.Rounds, Q: m.Q, B: m.B}, m.Params, m.MaxCycles)
	if err != nil {
		return mipsErr(err)
	}
	if apiErr := checkMachine(&m.Config, "/mips/config", "mips: "); apiErr != nil {
		return apiErr
	}
	if len(m.Config.Traffic) > 0 {
		return &APIError{Code: CodeInvalidConfig, Field: "/mips/config/traffic",
			Message: "mips: scenario takes no synthetic traffic (the workload is the traffic)"}
	}
	run, err := spec.Bind(m.Config.Topology.Nodes(), m.Config.Memory != nil)
	if err != nil {
		return mipsErr(err)
	}
	sc.single = true
	sc.runs = []runSpec{workloadRun("", m.Config, run)}
	return nil
}

// mipsErr points a binding failure into the mips request: the kernel is
// its workload field, a frozen parameter its own field, the machine its
// config.
func mipsErr(err *workloads.Error) *APIError {
	apiErr := &APIError{Code: CodeInvalidRequest, Field: "/mips/" + err.Field, Message: "mips: " + err.Msg}
	switch err.Field {
	case "kernel":
		apiErr.Field = "/mips/workload"
	case "memory":
		apiErr.Code, apiErr.Field = CodeInvalidConfig, "/mips/config/memory"
	case "":
		apiErr.Code, apiErr.Field = CodeInvalidConfig, "/mips/config"
	}
	return apiErr
}

// workloadRun is one bound kernel run on cfg. Its identity is the frozen
// MipsSpec wire form, so a scenario document that says what a mips
// request could say hashes as that request always has.
func workloadRun(key string, cfg config.Config, run *workloads.Run) runSpec {
	// The config's warmup and analyzed windows do not apply to application
	// runs: the workload defines its own span (halt or max_cycles).
	cfg = normalize(cfg)
	cfg.WarmupCycles, cfg.AnalyzedCycles = 0, 0
	f, params := run.Wire()
	m := &MipsSpec{Workload: run.Kernel, Rounds: f.Rounds, Q: f.Q, B: f.B,
		MaxCycles: run.MaxCycles, Params: params, Config: cfg}
	return runSpec{key: key, cfg: cfg, mips: m, work: run}
}

// figureSpelling: a named experiment of the registry. Only the
// request-level checks are the spelling's own; seal adopts the
// registry's identity.
func figureSpelling(sc *scenario, req SubmitRequest) *APIError {
	fig, ok := experiments.FigureByName(req.Figure)
	if !ok {
		return &APIError{Code: CodeUnknownFigure, Field: "/figure",
			Message: fmt.Sprintf("unknown figure %q", req.Figure)}
	}
	if req.Tiny && req.Full {
		return &APIError{Code: CodeInvalidRequest, Field: "/full",
			Message: "tiny and full are mutually exclusive"}
	}
	// A custom Name is rejected rather than silently diverging from the
	// registry document's.
	if req.Name != "" {
		return &APIError{Code: CodeInvalidRequest, Field: "/name",
			Message: "figure jobs are named by the figure itself; omit name"}
	}
	if req.ShareWarmup {
		return &APIError{Code: CodeInvalidRequest, Field: "/share_warmup",
			Message: "share_warmup applies to config/batch jobs; figures manage their own warmup sharing"}
	}
	sc.fig, sc.figOpts = &fig, experiments.Options{Tiny: req.Tiny, Full: req.Full}
	return nil
}

// scenarioSpelling: a declarative scenario document (internal/scenario),
// which carries its own name, seed, shards and share_warmup.
func scenarioSpelling(sc *scenario, req SubmitRequest) *APIError {
	reject := func(field, what string) *APIError {
		return &APIError{Code: CodeInvalidRequest, Field: field, Message: fmt.Sprintf(
			"scenario documents carry their own %s; omit the request-level field", what)}
	}
	if req.Name != "" {
		return reject("/name", "name")
	}
	if req.Seed != 0 {
		return reject("/seed", "seed (run.seed)")
	}
	if req.Shards != 0 {
		return reject("/shards", "sharding (run.shards)")
	}
	if req.ShareWarmup {
		return reject("/share_warmup", "warmup sharing (run.share_warmup)")
	}
	doc, ferr := scen.Decode(req.Scenario)
	if ferr != nil {
		return &APIError{Code: CodeInvalidScenario, Field: "/scenario" + ferr.Path, Message: ferr.Msg}
	}
	comp, ferr := scen.Compile(doc)
	if ferr != nil {
		return &APIError{Code: CodeInvalidScenario, Field: "/scenario" + ferr.Path, Message: ferr.Msg}
	}
	sc.name, sc.seed, sc.shareWarmup, sc.shards = comp.Name, comp.Seed, comp.ShareWarmup, comp.Shards
	sc.normalized = comp.Normalized
	sc.single = len(comp.Runs) == 1
	sc.runs = make([]runSpec, 0, len(comp.Runs))
	for _, r := range comp.Runs {
		if r.Workload == nil {
			sc.runs = append(sc.runs, runSpec{key: r.Key, cfg: normalize(r.Config)})
		} else {
			sc.runs = append(sc.runs, workloadRun(r.Key, r.Config, r.Workload))
		}
	}
	return nil
}

// mipsBatchItem is the identity record of one workload run in a
// multi-run scenario: the workload analogue of BatchItem, hashed under
// the "scenario" label (no legacy kind ever produced this shape).
type mipsBatchItem struct {
	Key  string   `json:"key"`
	Mips MipsSpec `json:"mips"`
}

// checkMachine holds one submitted configuration to core.Plan. field is
// the configuration's pointer in the request, which the rejection's
// config field extends; where prefixes the message.
func checkMachine(c *config.Config, field, where string) *APIError {
	if _, err := core.Plan(*c); err != nil {
		if f := config.Field(err); f != "" {
			field += "/" + f
		}
		return &APIError{Code: CodeInvalidConfig, Field: field, Message: where + err.Error()}
	}
	return nil
}

// checkRunnable validates one submitted synthetic-traffic simulation: a
// machine core.Plan accepts, with traffic and a bounded measured window.
func checkRunnable(c *config.Config, field, where string) *APIError {
	if apiErr := checkMachine(c, field, where); apiErr != nil {
		return apiErr
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
