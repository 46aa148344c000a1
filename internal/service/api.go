// Package service implements hornet-serve: a simulation-as-a-service job
// daemon. Clients submit scenarios — a full simulation configuration, a
// named experiment figure, or a batch of configurations — over an
// HTTP/JSON API, receive a job ID, poll or stream progress, and fetch the
// result as a sweep.Document.
//
// Three properties define the service:
//
//   - Scheduling: a fixed pool of job workers executes jobs concurrently,
//     and every simulation run inside every job acquires its CPU slots
//     from one shared sweep.Budget, so in-flight jobs together never
//     oversubscribe the host.
//
//   - Caching: results are content-addressed by sweep.ConfigHash over the
//     scenario's identity (normalized configuration, seed, scale). A
//     repeated scenario is served from the cache instantly, and the
//     cached response is byte-for-byte identical to the cold run's —
//     the document layer guarantees output does not depend on
//     parallelism, and the store keeps raw bytes.
//
//   - Streaming: per-run progress flows to clients over SSE
//     (GET /api/v1/jobs/{id}/events) or long-poll (GET /api/v1/jobs/{id}
//     with ?wait=). Whichever fleet worker executes a job reports through
//     one backend.Sink — the in-process worker directly, a remote worker
//     as wire events decoded onto the same sink.
package service

import (
	"encoding/json"
	"fmt"
	"time"

	"hornet/internal/config"
	"hornet/internal/obs"
	"hornet/internal/service/backend"
	"hornet/internal/workloads"
)

// The request spellings — what JobInfo and validate report as kind. They
// say how a job was written, never how it runs or what it is cached as.
const (
	KindConfig   = "config"   // one full config.Config simulation
	KindFigure   = "figure"   // a named experiment from internal/experiments
	KindBatch    = "batch"    // several configurations as one sweep
	KindMips     = "mips"     // an application workload on MIPS cores
	KindScenario = "scenario" // a declarative internal/scenario document
)

// Job states. Terminal states are StateDone, StateFailed, StateCanceled.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// SubmitRequest is the body of POST /api/v1/jobs. Exactly one of Config,
// Figure, Batch, Mips, Scenario selects the scenario.
type SubmitRequest struct {
	// Name labels the job and its result document. Optional; defaults to
	// the scenario kind. Restricted to [a-zA-Z0-9._-], at most 64
	// characters, so it is filesystem- and URL-safe. Figure jobs must
	// omit it: they are identified by the figure itself, so job, ETag,
	// and document identity always agree.
	Name string `json:"name,omitempty"`

	// Config submits one simulation of this configuration (synthetic
	// traffic only; attach patterns via its traffic list). WarmupCycles
	// and AnalyzedCycles in the config delimit the measured window.
	Config *config.Config `json:"config,omitempty"`

	// Figure names an experiment from the registry ("8", "t1", "fig9"...).
	Figure string `json:"figure,omitempty"`

	// Batch submits several keyed configurations executed as one sweep.
	Batch []BatchItem `json:"batch,omitempty"`

	// Mips submits an application workload executed on built-in MIPS
	// cores over the modeled interconnect (and, for shared-memory
	// workloads, the coherent-memory fabric). Cycle-level simulation of
	// real programs — the paper's Figs 8-12 mode — as a service.
	Mips *MipsSpec `json:"mips,omitempty"`

	// Scenario submits a declarative scenario document (see
	// internal/scenario): a versioned machine + frontend + sweep
	// description that the daemon compiles into the same internal
	// representation the legacy kinds use. Scenario documents carry their
	// own name, seed, sharding and warmup plan, so the request-level
	// Name/Seed/Shards/ShareWarmup knobs must be left unset.
	Scenario json.RawMessage `json:"scenario,omitempty"`

	// Seed is the job's master seed; per-run seeds derive from it.
	// 0 means the default experiment seed.
	Seed uint64 `json:"seed,omitempty"`

	// Workers is the number of engine workers (CPU slots) each simulation
	// run requests; it is clamped to the server's budget. 0 means 1.
	Workers int `json:"workers,omitempty"`

	// Tiny and Full pick the experiment scale for figure jobs
	// (smoke-test vs paper-scale); both false is the CI default scale.
	Tiny bool `json:"tiny,omitempty"`
	Full bool `json:"full,omitempty"`

	// NoCache forces re-execution even when a cached result exists. It
	// also opts the job out of single-flight coalescing: a NoCache
	// submission always runs its own simulation.
	NoCache bool `json:"no_cache,omitempty"`

	// Shards, when >= 2, asks for that many engine workers for the one
	// simulation, each starting from one contiguous span of the tile
	// grid: the run's weight is max(Workers, Shards), clamped like
	// Workers to what the executing worker grants. The result document is
	// byte-identical at any worker count, so Shards — like Workers — is
	// NOT part of the cache identity. Only single-run scenarios take it
	// (config, mips), they must use sync_period 1 (the default), and
	// share_warmup is rejected.
	Shards int `json:"shards,omitempty"`

	// ShareWarmup (config/batch jobs) derives every run's engine seed
	// from its warmup-prefix group instead of its item key, so runs whose
	// configurations agree on everything but measured-phase knobs
	// (analyzed_cycles) restore from one cached warmup snapshot instead
	// of each re-simulating the warmup. Changes per-run seeding, so it is
	// part of the job's cache identity.
	ShareWarmup bool `json:"share_warmup,omitempty"`
}

// BatchItem is one keyed configuration of a batch job.
type BatchItem struct {
	Key    string        `json:"key"`
	Config config.Config `json:"config"`
}

// MipsSpec describes one MIPS application scenario: a built-in workload
// kernel, its parameters, and the platform configuration it runs on.
// These runs are deterministic end to end, so their documents cache and
// checkpoint exactly like synthetic-traffic runs.
type MipsSpec struct {
	// Workload names the kernel: "pingpong" (MPI-style DMA ping-pong,
	// private per-core memory), "shared-pingpong" (the same hand-off
	// through the coherent-memory fabric; requires config.memory), or
	// "cannon" (Cannon's matrix multiply with message passing).
	Workload string `json:"workload"`
	// Rounds parameterizes the ping-pong workloads (default 100).
	Rounds int `json:"rounds,omitempty"`
	// Q and B parameterize cannon: a q x q core grid of b x b blocks
	// (defaults 2 and 4); the topology must have exactly q*q nodes.
	Q int `json:"q,omitempty"`
	B int `json:"b,omitempty"`
	// MaxCycles caps the simulation in case the workload never halts
	// (default 10,000,000).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Params parameterizes registry kernels ("reduction",
	// "matmul-blocked", ...): missing keys take the kernel's defaults,
	// unknown keys are rejected. The pre-registry kernels above use the
	// dedicated Rounds/Q/B fields instead and must leave Params unset —
	// that keeps their normalized identity, and therefore their cache
	// hashes, byte-identical to what earlier daemons computed.
	Params workloads.Params `json:"params,omitempty"`
	// Config is the platform: topology, router, routing, engine, and —
	// for shared-memory workloads — the memory hierarchy. Synthetic
	// traffic sources are rejected: the workload is the traffic.
	Config config.Config `json:"config"`
}

// JobInfo is the client-visible job state (GET /api/v1/jobs/{id}).
type JobInfo struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	State      string `json:"state"`
	ConfigHash string `json:"config_hash"`
	Seed       uint64 `json:"seed"`
	CacheHit   bool   `json:"cache_hit,omitempty"`
	// Coalesced marks a job served by attaching to an identical job that
	// was already in flight (single-flight): it never simulated, and its
	// result bytes are the leader's.
	Coalesced bool `json:"coalesced,omitempty"`
	// Backend is the class of the fleet worker that ran (or is running)
	// the job: "local" (the daemon's own in-process worker) or "fleet" (a
	// remote worker). A job a remote worker started and the in-process
	// worker finished reads "local". Empty for jobs that never executed
	// (cache hits, coalesced followers).
	Backend   string `json:"backend,omitempty"`
	RunsDone  int    `json:"runs_done"`
	RunsTotal int    `json:"runs_total"`
	// ResumedRuns counts runs restored from a checkpoint snapshot
	// instead of starting at cycle 0; Checkpoints counts autosave
	// snapshots this job wrote (checkpointing daemons only).
	ResumedRuns int       `json:"resumed_runs,omitempty"`
	Checkpoints int       `json:"checkpoints,omitempty"`
	Error       string    `json:"error,omitempty"`
	Created     time.Time `json:"created"`
	Started     time.Time `json:"started,omitzero"`
	Finished    time.Time `json:"finished,omitzero"`
	// Engine is the latest engine-probe snapshot for a running job:
	// cycles/sec plus the per-partition compute vs. barrier-wait split.
	Engine *obs.ProbeSnapshot `json:"engine,omitempty"`
	// Telemetry is the latest machine-telemetry snapshot for a running
	// job: per-tile flit counters and per-link buffer occupancy across the
	// whole machine.
	Telemetry *obs.TelemetrySnapshot `json:"telemetry,omitempty"`
	// Stalls counts watchdog-detected stall episodes: windows in which a
	// running job's executors reported no forward progress.
	Stalls int `json:"stalls,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j JobInfo) Terminal() bool {
	switch j.State {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Event is one progress notification on a job's SSE stream.
type Event struct {
	// Type is "state", "progress", "checkpoint", "resumed", "engine",
	// "telemetry" or "stalled".
	Type  string `json:"type"`
	Job   string `json:"job"`
	State string `json:"state,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Key   string `json:"key,omitempty"` // run key (progress/checkpoint/resumed events)
	// Cycle is the simulation clock of a checkpoint or resume point.
	Cycle uint64 `json:"cycle,omitempty"`
	// Engine carries the probe snapshot of an "engine" event.
	Engine *obs.ProbeSnapshot `json:"engine,omitempty"`
	// Telemetry carries the merged full-machine snapshot of a
	// "telemetry" event.
	Telemetry *obs.TelemetrySnapshot `json:"telemetry,omitempty"`
}

// FigureInfo describes one registry experiment (GET /api/v1/figures).
type FigureInfo struct {
	Name   string `json:"name"`
	Title  string `json:"title"`
	Serial bool   `json:"serial"` // wall-clock figure: runs serially, never cached
}

// ServerStats is the scheduler/cache observability view
// (GET /api/v1/stats). BudgetPeak never exceeds BudgetCap: the shared
// pool is what keeps concurrent jobs from oversubscribing the host.
type ServerStats struct {
	BudgetCap    int    `json:"budget_cap"`
	BudgetInUse  int    `json:"budget_in_use"`
	BudgetPeak   int    `json:"budget_peak"`
	JobsQueued   int    `json:"jobs_queued"`
	JobsRunning  int    `json:"jobs_running"`
	JobsDone     int    `json:"jobs_done"`
	JobsFailed   int    `json:"jobs_failed"`
	JobsCanceled int    `json:"jobs_canceled"`
	CacheEntries int    `json:"cache_entries"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	// CacheWriteErrs counts failed disk-tier writes: non-zero means the
	// daemon is serving correctly but no longer persisting results.
	CacheWriteErrs uint64 `json:"cache_write_errs"`
	// CacheEvictions counts in-memory result entries dropped by the
	// LRU/size bound (disk-tier entries, when configured, survive).
	CacheEvictions uint64 `json:"cache_evictions"`
	// JobsExpired counts finished job records removed by the retention
	// TTL; expired jobs return 404 (their cached results remain served
	// to new submissions of the same scenario).
	JobsExpired uint64 `json:"jobs_expired"`
	// CoalescedJobs counts submissions served by attaching to an
	// identical in-flight job instead of simulating twice.
	CoalescedJobs uint64 `json:"coalesced_jobs"`
	// Warmup-snapshot cache counters: hits are warmups restored from a
	// snapshot, misses are warmups actually simulated.
	WarmupHits   uint64 `json:"warmup_hits"`
	WarmupMisses uint64 `json:"warmup_misses"`
	// Checkpoint counters: snapshots autosaved, failed autosave writes
	// (non-zero means the daemon can no longer persist state and resume
	// protection is degraded), and runs resumed from a snapshot.
	CheckpointsWritten  uint64 `json:"checkpoints_written"`
	CheckpointWriteErrs uint64 `json:"checkpoint_write_errs"`
	RunsResumed         uint64 `json:"runs_resumed"`
	// RemoteJobs counts jobs whose document a remote worker produced;
	// FallbackJobs counts jobs the in-process worker took over because the
	// last remote worker left while they ran on it or waited for it.
	RemoteJobs   uint64 `json:"remote_jobs"`
	FallbackJobs uint64 `json:"fallback_jobs"`
	// Fleet is the worker-fleet registry view (workers, capacity,
	// dispatch/migration counters).
	Fleet backend.FleetStats `json:"fleet"`

	// JobsRestored counts jobs rebuilt from the write-ahead journal at
	// startup (terminal restores and re-enqueued in-flight jobs alike).
	JobsRestored uint64 `json:"jobs_restored,omitempty"`
	// JournalErrs counts failed journal appends/compactions: non-zero
	// means the daemon is serving correctly but its durability is
	// degraded — like CheckpointWriteErrs, but for the job log.
	JournalErrs uint64 `json:"journal_errs,omitempty"`
	// Journal is the write-ahead job journal's view; zero-valued (with
	// Enabled false) when the daemon runs without -journal-dir.
	Journal JournalStats `json:"journal"`
}

// JournalStats is the write-ahead job journal's observability view.
type JournalStats struct {
	Enabled     bool   `json:"enabled"`
	Appended    uint64 `json:"appended"`
	Compactions uint64 `json:"compactions"`
	// Replayed is how many records the last Open recovered;
	// TruncatedTail reports whether it had to cut a torn tail (the
	// signature of a crash mid-append — expected, not an error).
	Replayed      int  `json:"replayed"`
	TruncatedTail bool `json:"truncated_tail,omitempty"`
	// LiveRecords is the record count appended since the last
	// compaction — the input to the compaction policy.
	LiveRecords int `json:"live_records"`
}

// RunStats is the deterministic result record of one config/batch
// simulation run: pure functions of (configuration, seed), no wall-clock
// or host-dependent fields, so result documents are cacheable
// byte-for-byte.
type RunStats struct {
	Nodes            int     `json:"nodes"`
	Cycles           uint64  `json:"cycles"`
	SkippedCycles    uint64  `json:"skipped_cycles,omitempty"`
	FlitsInjected    uint64  `json:"flits_injected"`
	FlitsDelivered   uint64  `json:"flits_delivered"`
	PacketsInjected  uint64  `json:"packets_injected"`
	PacketsDelivered uint64  `json:"packets_delivered"`
	AvgFlitLatency   float64 `json:"avg_flit_latency"`
	AvgPacketLatency float64 `json:"avg_packet_latency"`
	MaxPacketLatency uint64  `json:"max_packet_latency"`
	AvgHops          float64 `json:"avg_hops"`
	Throughput       float64 `json:"throughput"` // delivered flits / node / cycle
}

// Error codes carried in the JSON error envelope.
const (
	CodeInvalidRequest  = "invalid_request"
	CodeInvalidConfig   = "invalid_config"
	CodeInvalidScenario = "invalid_scenario"
	CodeUnknownFigure   = "unknown_figure"
	CodeNotFound        = "not_found"
	CodeNotFinished     = "not_finished"
	CodeQueueFull       = "queue_full"
	CodeShuttingDown    = "shutting_down"
)

// APIError is the structured error envelope every non-2xx response
// carries: {"error": {"code": "...", "message": "...", "field": "..."}}.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Field is a JSON-pointer-style path into the request body naming
	// the input the error is about ("/mips/rounds",
	// "/scenario/machine/topology", "/batch/3/config", ...). Empty when
	// the error is not about one specific field.
	Field string `json:"field,omitempty"`
}

// Error implements the error interface (used by the Go client).
func (e *APIError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("%s: %s (field %s)", e.Code, e.Message, e.Field)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// errorBody is the wire envelope around APIError.
type errorBody struct {
	Err APIError `json:"error"`
}

// ValidateResponse is the body of a successful POST /api/v1/validate: the
// dry-run view of a submission — what it would compile to, what it would
// be cached under — without running anything.
type ValidateResponse struct {
	// Kind is the submission surface ("config", "figure", "batch",
	// "mips", "scenario").
	Kind string `json:"kind"`
	// Name and ConfigHash are the content address the result document
	// would carry; CacheKey is the result-cache key ("name-hash").
	Name       string `json:"name"`
	ConfigHash string `json:"config_hash"`
	CacheKey   string `json:"cache_key"`
	Seed       uint64 `json:"seed"`
	// Cacheable is false for wall-clock experiments whose documents are
	// never byte-stable.
	Cacheable   bool     `json:"cacheable"`
	RunsTotal   int      `json:"runs_total"`
	RunKeys     []string `json:"run_keys,omitempty"`
	Shards      int      `json:"shards,omitempty"`
	ShareWarmup bool     `json:"share_warmup,omitempty"`
	// Normalized is the canonical form of a scenario submission — every
	// default materialized — so clients can see exactly which machine
	// the schema compiled to. Omitted for legacy kinds.
	Normalized json.RawMessage `json:"normalized,omitempty"`
}
