package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/fsatomic"
	"hornet/internal/obs"
	"hornet/internal/service/backend"
	"hornet/internal/sim"
	"hornet/internal/snapshot"
	"hornet/internal/sweep"
)

// CheckpointStore persists autosaved run snapshots, addressed by a
// content-based key ("<name>-<hash>-<runkey>"). The daemon's default
// store is a directory (DirCheckpointStore); workers use an HTTP store
// that uploads blobs to their coordinator so a dead worker's job can
// migrate, checkpoint included, to a surviving one.
type CheckpointStore interface {
	// Save persists the encoded snapshot blob for key, replacing any
	// previous blob. cycle is the snapshot's simulation clock
	// (observability; stores may ignore it).
	Save(key string, blob []byte, cycle uint64) error
	// Load returns the latest blob for key, if one exists.
	Load(key string) ([]byte, bool)
	// Remove discards the blob for key (the run completed).
	Remove(key string)
}

// DirCheckpointStore is the on-disk store: ckpt-<key>.snap files in one
// directory, written atomically (the PR 3 layout).
type DirCheckpointStore struct{ Dir string }

func (d DirCheckpointStore) path(key string) string {
	return filepath.Join(d.Dir, "ckpt-"+key+".snap")
}

func (d DirCheckpointStore) Save(key string, blob []byte, cycle uint64) error {
	return fsatomic.WriteFile(d.path(key), blob)
}

func (d DirCheckpointStore) Load(key string) ([]byte, bool) {
	b, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, false
	}
	return b, true
}

func (d DirCheckpointStore) Remove(key string) { os.Remove(d.path(key)) }

// MemCheckpointStore keeps blobs in memory: the store a migrated task's
// blobs are seeded into when the coordinator has no checkpoint
// directory, and the load-side cache of the worker's remote store.
type MemCheckpointStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

func NewMemCheckpointStore() *MemCheckpointStore {
	return &MemCheckpointStore{blobs: map[string][]byte{}}
}

func (m *MemCheckpointStore) Save(key string, blob []byte, cycle uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blobs[key] = append([]byte(nil), blob...)
	return nil
}

func (m *MemCheckpointStore) Load(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[key]
	return b, ok
}

func (m *MemCheckpointStore) Remove(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blobs, key)
}

// execEnv is the execution environment for config/batch/mips runs: the
// warmup snapshot cache (warmup-once/fork-many) and the checkpoint
// settings (periodic autosave + resume). The scheduler shares one env
// across every job it runs; a worker builds one per process.
type execEnv struct {
	// warm dedupes warmup prefixes across runs, jobs, and — with a
	// checkpoint directory configured — daemon restarts.
	warm *sweep.SnapshotCache
	// store enables measured/warmup-phase autosave; nil disables.
	store CheckpointStore
	// ckptEvery is the autosave period in simulated cycles.
	ckptEvery uint64
	// counters are shared across derived envs (withStore), so per-job
	// store overrides still feed the daemon's stats.
	counters *envCounters
	// telEvery is the machine-telemetry cadence: every system this env
	// runs samples per-tile/per-link state at sync points, and a
	// wall-clock pump forwards the freshest sample to the run's sink
	// every telEvery (0 means 500ms). Negative samples nothing: the
	// engine keeps its nil-sampler fast path.
	telEvery time.Duration
	// log receives checkpoint-layer diagnostics; nil means discard.
	log *slog.Logger
}

// envCounters aggregates checkpoint observability across an env and
// everything derived from it.
type envCounters struct {
	checkpointsWritten atomic.Uint64
	checkpointWriteErr atomic.Uint64
	runsResumed        atomic.Uint64
	// checkpointBytes / encodeNS / saveNS account the encoded snapshot
	// volume and where the time went (serialization vs store I/O).
	checkpointBytes atomic.Uint64
	encodeNS        atomic.Int64
	saveNS          atomic.Int64
}

// withStore derives an env that autosaves into a different checkpoint
// store but shares the warmup cache and counters — how a migrated
// task's uploaded blobs become resumable on a daemon that has no
// checkpoint directory of its own.
func (e *execEnv) withStore(store CheckpointStore) *execEnv {
	d := *e
	d.store = store
	return &d
}

// telemetrySampleCycles is the engine-side sampling cadence: the
// sampler fires at the first sync point at or past each multiple of
// this many simulated cycles (plus once when a run halts). The
// wall-clock pump decimates further, so the cadence only bounds how
// stale a forwarded sample can be in simulation time.
const telemetrySampleCycles = 256

// startTelemetry enables machine telemetry on sys and starts the
// wall-clock pump forwarding fresh samples to sink. The returned stop
// function ends the pump and flushes the final sample — the one the
// engine takes at the run's last sync point, which therefore agrees with
// the run's final statistics. A no-op when the env samples no telemetry.
func (e *execEnv) startTelemetry(sys *core.System, sink backend.Sink) func() {
	if e.telEvery < 0 {
		return func() {}
	}
	sys.EnableTelemetry(telemetrySampleCycles)
	every := e.telEvery
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		var lastSeq uint64
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if snap, seq := sys.Telemetry(); seq != lastSeq {
					lastSeq = seq
					sink.Telemetry(snap)
				}
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		if snap, seq := sys.Telemetry(); seq > 0 {
			sink.Telemetry(snap)
		}
	}
}

// logger returns the env's diagnostic logger, never nil.
func (e *execEnv) logger() *slog.Logger {
	if e.log == nil {
		return obs.Nop()
	}
	return e.log
}

// warmCacheEntries bounds the daemon's in-memory warmup snapshots:
// they are full-system states (hundreds of KB to MB each), so a
// long-lived daemon with many distinct warmup groups must not hoard
// them. Evicted entries refault from the checkpoint directory's disk
// tier when one is configured.
const warmCacheEntries = 32

func newExecEnv(checkpointDir string, checkpointEvery uint64) *execEnv {
	warm := sweep.NewSnapshotCache(checkpointDir)
	warm.SetMaxEntries(warmCacheEntries)
	env := &execEnv{
		warm:      warm,
		ckptEvery: checkpointEvery,
		counters:  &envCounters{},
	}
	if checkpointDir != "" {
		env.store = DirCheckpointStore{Dir: checkpointDir}
	}
	return env
}

// ckptMeta is the driver-level progress record riding in the snapshot's
// extra section: which run this is, which phase it was in, and the
// accumulated engine counters the final RunStats needs.
type ckptMeta struct {
	Name string `json:"name"`
	Hash string `json:"hash"` // job scenario hash (identity guard)
	Key  string `json:"key"`  // run key within the job
	Seed uint64 `json:"seed"` // effective engine seed of the run

	Phase string `json:"phase"` // "warmup" or "measured"
	// Done is the simulated-cycle progress within the current phase
	// (executed + fast-forwarded); Exec/Skip accumulate the measured
	// phase's executed and skipped counts for the RunStats record.
	Done uint64 `json:"done"`
	Exec uint64 `json:"exec"`
	Skip uint64 `json:"skip"`
}

const serveMetaSection = "serve-meta"

// CheckpointKey is the content-based store address for one run of one
// scenario — scenario hash, not job ID — so a resubmitted (or migrated)
// scenario finds the checkpoints an earlier executor left.
func CheckpointKey(name, hash, runKey string) string {
	return fmt.Sprintf("%s-%s-%s", name, hash, runKey)
}

// saveCheckpoint snapshots the system plus progress meta into the store
// under key.
func (e *execEnv) saveCheckpoint(sys *core.System, key string, meta ckptMeta) error {
	encStart := time.Now()
	snap, err := sys.Snapshot()
	if err != nil {
		return err
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	snap.Section(serveMetaSection).Bytes(mb)
	blob, err := snap.Bytes()
	if err != nil {
		return err
	}
	e.counters.encodeNS.Add(time.Since(encStart).Nanoseconds())
	saveStart := time.Now()
	if err := e.store.Save(key, blob, sys.Clock()); err != nil {
		return err
	}
	e.counters.saveNS.Add(time.Since(saveStart).Nanoseconds())
	e.counters.checkpointBytes.Add(uint64(len(blob)))
	e.counters.checkpointsWritten.Add(1)
	return nil
}

// decodeCheckpoint restores a run from a checkpoint blob. It returns
// ok=false — silently, the run just starts from cycle 0 — when the blob
// is unusable: a corrupt or version-skewed container, a different
// scenario's state (want is the run's from-cycle-0 meta, the identity
// to match), a phase the run's plan does not have, or a snapshot the
// freshly built system refuses (config-hash guard).
func decodeCheckpoint(m *machine, want ckptMeta, blob []byte) (*core.System, ckptMeta, bool) {
	var meta ckptMeta
	snap, err := snapshot.DecodeBytes(blob)
	if err != nil {
		return nil, meta, false
	}
	r, err := snap.Open(serveMetaSection)
	if err != nil {
		return nil, meta, false
	}
	if err := json.Unmarshal(r.ByteSlice(), &meta); err != nil || r.Close() != nil {
		return nil, meta, false
	}
	if meta.Name != want.Name || meta.Hash != want.Hash || meta.Key != want.Key || meta.Seed != want.Seed ||
		m.phaseIndex(meta.Phase) < 0 {
		return nil, meta, false
	}
	sys, err := m.build()
	if err != nil {
		return nil, meta, false
	}
	if err := sys.Restore(snap); err != nil {
		return nil, meta, false
	}
	return sys, meta, true
}

// chunkedRun drives one attempt at one checkpointable simulation: it
// advances the system through the machine's phase plan in autosave
// chunks, saving at chunk boundaries and when a cancelled run drains,
// and accounting executed/skipped cycles into the meta record that
// rides in every snapshot. Every run kind shares this loop so the
// cadence-alignment rules can never diverge between them — divergence
// would break the resumed-vs-uninterrupted byte-identity contract for
// one kind only.
type chunkedRun struct {
	env   *execEnv
	sys   *core.System
	sink  backend.Sink
	probe *obs.SimProbe // nil: unprobed
	key   string        // checkpoint store key
	meta  *ckptMeta
	stop  func(cycle uint64) bool // sweep-cancellation probe
}

// checkpoint saves the current state; invoked at autosave boundaries
// and when a cancelled run drains. Failed saves are counted
// (ServerStats.CheckpointWriteErrs) so a daemon that silently stopped
// persisting is visible before the crash that needed the snapshots.
func (cr *chunkedRun) checkpoint() {
	if cr.env.store == nil {
		return
	}
	if err := cr.env.saveCheckpoint(cr.sys, cr.key, *cr.meta); err == nil {
		cr.sink.Checkpoint(cr.meta.Key, cr.sys.Clock())
	} else {
		cr.env.counters.checkpointWriteErr.Add(1)
		cr.env.logger().Warn("checkpoint write failed", slog.String("key", cr.key),
			slog.Uint64("cycle", cr.sys.Clock()), obs.Err(err))
	}
}

// advance runs phase p until meta.Done reaches its target or the
// optional done predicate reports the workload finished, in autosave
// chunks; it returns the context error when the sweep was cancelled
// (after saving a final checkpoint so a retry resumes here).
// Chunk boundaries are pinned to absolute multiples of ckptEvery so a
// resume after a mid-chunk cancel re-aligns with the cadence an
// uninterrupted run would have used; continuation chunks (meta.Done > 0)
// run as RunUntilResumed so a fast-forwarding engine re-derives the jump
// a chunk boundary interrupted, keeping chunked execution byte-identical
// to an uninterrupted run — the autosave cadence cannot leak into
// result bytes (the scenario hash knows nothing of daemon checkpoint
// settings).
func (cr *chunkedRun) advance(ctx context.Context, p phase, done func(cycle uint64) bool) error {
	stopOrDone := cr.stop
	if done != nil {
		stop := cr.stop
		stopOrDone = func(cycle uint64) bool { return stop(cycle) || done(cycle) }
	}
	finished := func() bool { return done != nil && done(cr.sys.Clock()) }
	for cr.meta.Done < p.target && !finished() {
		chunk := p.target - cr.meta.Done
		if cr.env.store != nil && cr.env.ckptEvery > 0 {
			if next := (cr.meta.Done/cr.env.ckptEvery + 1) * cr.env.ckptEvery; next-cr.meta.Done < chunk {
				chunk = next - cr.meta.Done
			}
		}
		var res sim.RunResult
		if cr.meta.Done > 0 {
			res = cr.sys.RunUntilResumed(chunk, stopOrDone)
		} else {
			res = cr.sys.RunUntil(chunk, stopOrDone)
		}
		cr.meta.Done += res.Cycles + res.SkippedCycles
		if p.measured {
			cr.meta.Exec += res.Cycles
			cr.meta.Skip += res.SkippedCycles
		}
		if cr.probe != nil {
			// Chunk boundaries are the engine-telemetry cadence: each
			// snapshot rides the sink to the job (SSE, /metrics).
			cr.sink.Engine(cr.probe.Snapshot())
		}
		if res.Err != nil {
			return res.Err
		}
		if err := ctx.Err(); err != nil {
			cr.checkpoint()
			return err
		}
		if res.Stopped {
			// The done predicate fired; the loop condition re-checks it.
			break
		}
		if cr.meta.Done < p.target && !finished() {
			cr.checkpoint()
		}
	}
	return nil
}

// phase is one step of a run's plan: advance the machine by target
// simulated cycles, counting them into the document's cycle totals when
// measured. The names are the ckptMeta phase strings, so they are wire
// format: a checkpoint written by an older executor must still find its
// phase here.
type phase struct {
	name     string
	target   uint64
	measured bool
}

// machine is one runSpec lowered to data the driver executes without
// asking what kind of run it is: the engine-ready configuration, the
// frontend to attach to a freshly built system, the ordered phase plan,
// and — for application workloads — the completion predicate that ends
// the run before its cycle cap.
type machine struct {
	cfg    config.Config
	attach func(*core.System) error
	plan   []phase
	done   func(*core.System) func(cycle uint64) bool
}

// lower compiles a runSpec for one execution: workers is the CPU-slot
// grant, seed the run's effective engine seed.
func lower(spec runSpec, workers int, seed uint64) *machine {
	m := &machine{cfg: spec.cfg}
	m.cfg.Engine.Workers = workers
	m.cfg.Engine.Seed = seed
	w := spec.work
	if w == nil {
		// The system configuration must be identical for every run that
		// shares a warmup prefix (the snapshot guard hashes it), so the
		// driver-level cycle windows are zeroed and driven as phases.
		m.plan = []phase{
			{name: "warmup", target: uint64(m.cfg.WarmupCycles)},
			{name: "measured", target: uint64(m.cfg.AnalyzedCycles), measured: true},
		}
		m.cfg.WarmupCycles, m.cfg.AnalyzedCycles = 0, 0
		m.attach = func(sys *core.System) error { return sys.AttachSyntheticTraffic() }
		return m
	}
	// An application workload defines its own span: measured from
	// instruction zero until every core halts and the network drains, or
	// the cycle cap. The full core/RAM/fabric state rides in snapshots.
	m.plan = []phase{{name: "measured", target: w.MaxCycles, measured: true}}
	m.done = func(sys *core.System) func(uint64) bool { return sys.CoresHalted(sys.MIPSCores()) }
	m.attach = func(sys *core.System) error { return sys.AttachWorkload(w) }
	return m
}

// newSystem builds a run's machine; a test may wrap it.
var newSystem = core.New

// build constructs the machine at cycle 0, frontend attached.
func (m *machine) build() (*core.System, error) {
	sys, err := newSystem(m.cfg)
	if err != nil {
		return nil, err
	}
	if err := m.attach(sys); err != nil {
		return nil, err
	}
	return sys, nil
}

// phaseIndex locates a ckptMeta phase string in the plan (-1: absent).
func (m *machine) phaseIndex(name string) int {
	for i, p := range m.plan {
		if p.name == name {
			return i
		}
	}
	return -1
}

// runPlan sequences the plan's phases from the one meta names (the
// first, or wherever a restored checkpoint left off), resetting the
// statistics between phases so only the last one is measured, with the
// telemetry pump running; its final sample goes out when it returns.
func (cr *chunkedRun) runPlan(ctx context.Context, m *machine) error {
	var done func(cycle uint64) bool
	if m.done != nil {
		done = m.done(cr.sys)
	}
	stopTel := cr.env.startTelemetry(cr.sys, cr.sink)
	defer stopTel()
	for i := m.phaseIndex(cr.meta.Phase); i < len(m.plan); i++ {
		if err := cr.advance(ctx, m.plan[i], done); err != nil {
			return err
		}
		if i+1 < len(m.plan) {
			cr.sys.ResetStats()
			cr.meta.Phase, cr.meta.Done = m.plan[i+1].name, 0
		}
	}
	return nil
}

// run compiles one runSpec into its sweep run function. It is the one
// driver every service simulation goes through — synthetic traffic or
// application workload: build the machine or restore it from the latest
// autosave, advance it through its phase plan in autosave chunks, and
// summarize into the deterministic RunStats record.
//
// The run polls the sweep context at every synchronization point so a
// cancelled job drains quickly even mid-simulation; a cancelled run
// saves a final checkpoint (checkpointing daemons) so a retry resumes
// where it stopped.
func (e *execEnv) run(sc *scenario, sink backend.Sink, probe *obs.SimProbe, spec runSpec) func(sweep.Ctx) (any, error) {
	return func(c sweep.Ctx) (any, error) {
		// c.Seed is the run's effective seed: the scenario builder set
		// the item's explicit warmup-group seed for share_warmup jobs,
		// so the emitted document records what actually ran.
		m := lower(spec, c.Workers, c.Seed)
		key := CheckpointKey(sc.name, sc.hash, spec.key)
		fresh := ckptMeta{Name: sc.name, Hash: sc.hash, Key: spec.key, Seed: c.Seed, Phase: m.plan[0].name}
		stop := cancelStop(c.Context)
		ckptOn := e.store != nil

		var sys *core.System
		meta := fresh
		var err error
		if ckptOn {
			// A missing blob decodes like a corrupt one: not at all.
			blob, _ := e.store.Load(key)
			if restored, rm, ok := decodeCheckpoint(m, fresh, blob); ok {
				sys, meta = restored, rm
				e.counters.runsResumed.Add(1)
				sink.Resumed(spec.key, sys.Clock())
			}
		}
		if sys == nil {
			if warmup := m.plan[0]; sc.shareWarmup && !warmup.measured && warmup.target > 0 {
				// Warmup-once/fork-many: restore the group's warmup
				// snapshot (simulating it only if this run is first) and
				// enter the plan behind it.
				if sys, err = core.WarmedSystem(c.Context, e.warm, m.cfg, warmup.target, stop, m.build); err != nil {
					return nil, err
				}
				sys.ResetStats()
				meta.Phase = m.plan[1].name
			} else if sys, err = m.build(); err != nil {
				return nil, err
			}
		}
		if probe != nil {
			sys.SetProbe(probe)
		}
		cr := &chunkedRun{env: e, sys: sys, sink: sink, probe: probe, key: key, meta: &meta, stop: stop}
		if err := cr.runPlan(c.Context, m); err != nil {
			return nil, err
		}
		if ckptOn {
			// The result document now carries the state.
			e.store.Remove(key)
		}
		return summarize(sys.Summary(), m.cfg.Topology.Nodes(), meta.Exec, meta.Skip), nil
	}
}
