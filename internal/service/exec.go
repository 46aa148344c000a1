package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"hornet/internal/obs"
	"hornet/internal/service/backend"
	"hornet/internal/sweep"
)

// executeScenario runs one compiled scenario against an execution
// environment and returns the canonical document bytes plus the number
// of per-run errors recorded inside the document. It is the single
// execution path shared by the scheduler's in-process backend and the
// standalone Execute entry point hornet-worker uses — sharing it is
// what makes a document byte-identical no matter which process produced
// it. A panic anywhere in scenario execution (the experiments package
// treats bad runs as programming errors and panics) becomes an error,
// never a dead process.
//
// shard, when non-nil, makes this execution one member of the
// scenario's space-parallel group. A member returns a run-level failure
// as an error instead of recording it inside the document: a member
// that silently "succeeded" with an error document would leave its
// siblings parked in a barrier it will never reach again.
func executeScenario(ctx context.Context, sc *scenario, env *execEnv, pool *sweep.Budget, sink backend.Sink, shard *ShardMember) (b []byte, runErrs int, err error) {
	defer func() {
		if p := recover(); p != nil {
			b, runErrs, err = nil, 0, fmt.Errorf("job panicked: %v", p)
		}
	}()
	switch {
	case sc.fig != nil:
		o := sc.figOpts
		o.Context = ctx
		o.Pool = pool
		o.Progress = sink.Progress
		// Figures with shared warmup prefixes draw on the env-wide
		// warmup snapshot cache (reuse cannot change output bytes).
		o.Warmups = env.warm
		if env.probe != nil {
			// Figures bypass the chunked-run path, so the probe attaches
			// through the experiment options and snapshots surface at
			// run-completion boundaries (plus once at the end) — the same
			// engine series sweep jobs feed, now for figure jobs too.
			o.Probe = env.probe
			progress := o.Progress
			o.Progress = func(done, total int, key string) {
				progress(done, total, key)
				backend.SinkEngine(sink, env.probe.Snapshot())
			}
		}
		_, doc, runErr := sc.fig.Document(o)
		if env.probe != nil {
			backend.SinkEngine(sink, env.probe.Snapshot())
		}
		if runErr != nil {
			return nil, 0, runErr // cancelled mid-figure
		}
		for _, r := range doc.Runs {
			if r.Err != "" {
				runErrs++
			}
		}
		b, err = encodeDocument(doc)
		return b, runErrs, err
	default: // a run list
		items := make([]sweep.Item, len(sc.runs))
		for i, spec := range sc.runs {
			items[i] = sweep.Item{Key: spec.key, Weight: spec.weight, Seed: spec.seed,
				Run: env.run(sc, sink, spec, shard)}
		}
		cfg := sweep.Config{
			// In-flight runs within the job: bounded by the shared pool
			// anyway, so let the sweep try to dispatch as wide as the pool.
			Workers: pool.Cap(),
			Pool:    pool,
			Seed:    sc.seed,
			OnProgress: func(done, total int, r sweep.Result) {
				sink.Progress(done, total, r.Key)
			},
		}
		results := sweep.Run(ctx, items, cfg)
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		for _, r := range results {
			if r.Err != nil {
				if shard != nil {
					return nil, 0, r.Err
				}
				runErrs++
			}
		}
		doc := sweep.NewDocument(sc.name, sc.hash, sc.seed, results)
		b, err = encodeDocument(doc)
		return b, runErrs, err
	}
}

// ExecOptions configures standalone execution of one submit request —
// the path hornet-worker uses to run a task its coordinator dispatched.
type ExecOptions struct {
	// Workers is the CPU-slot budget of this execution; 0 means
	// GOMAXPROCS.
	Workers int
	// Checkpoints, if non-nil, enables autosave/resume: runs restore
	// from the store's blobs and save back into it every
	// CheckpointEvery cycles. Workers pass an HTTP store that uploads
	// to the coordinator.
	Checkpoints CheckpointStore
	// CheckpointEvery is the autosave period in simulated cycles;
	// 0 means 100000. Migrated runs only re-align their chunk cadence —
	// and therefore reproduce an uninterrupted run byte-for-byte — when
	// every executor of a scenario uses the same value, so workers take
	// it from their coordinator, never from local configuration.
	CheckpointEvery uint64

	// Warmups, if non-nil, is a warmup snapshot cache shared across
	// calls — a worker passes one per process so back-to-back tasks
	// with the same warmup prefix fork from one snapshot, exactly like
	// jobs sharing the daemon's execution environment. Nil builds a
	// fresh per-call cache.
	Warmups *sweep.SnapshotCache

	// Progress/Resumed/Checkpoint observe the execution; any may be nil.
	OnProgress   func(done, total int, key string)
	OnResumed    func(key string, cycle uint64)
	OnCheckpoint func(key string, cycle uint64)
	// OnEngine, if non-nil, attaches an engine probe to the execution
	// and receives cumulative probe snapshots at every autosave-chunk
	// boundary (cycles/sec, per-partition compute vs barrier time, shard
	// sync latency). Leaving it nil keeps the engine hot path
	// instrumentation-free.
	OnEngine func(s obs.ProbeSnapshot)
	// OnTelemetry, if non-nil, enables machine telemetry on config/mips
	// runs: the engine samples per-tile flit counters and per-link
	// buffer occupancy at sync points, and the freshest sample is
	// forwarded every TelemetryEvery of wall time (plus once after each
	// run). Leaving it nil keeps the engine's nil-sampler fast path.
	OnTelemetry func(s obs.TelemetrySnapshot)
	// TelemetryEvery is the wall-clock forwarding period of OnTelemetry;
	// 0 means 500ms.
	TelemetryEvery time.Duration

	// Shard, if non-nil, runs ONE member of the request's space-parallel
	// group in this process instead of the whole simulation. OnTelemetry
	// samples then cover only the member's tile span; the coordinator
	// merges the members' spans into the full-machine view.
	Shard *ShardMember
}

// ExecResult is the outcome of a standalone Execute.
type ExecResult struct {
	// Doc is the canonical result document (byte-identical to what any
	// other executor of the same request produces).
	Doc []byte
	// RunErrs is the number of per-run errors recorded in the document.
	RunErrs int
	// Name/Hash/Seed are the scenario's content address.
	Name string
	Hash string
	Seed uint64
}

// ErrInvalidRequest wraps a request that failed scenario validation —
// the remote-execution analogue of the API's 4xx responses. The
// *APIError (code, message, field pointer) rides inside: errors.As
// recovers it.
var ErrInvalidRequest = errors.New("service: invalid request")

// Execute validates req and runs it to completion in this process — or,
// with opts.Shard, runs one member of its space-parallel group. It is
// the worker-side twin of the daemon's job execution: same validation,
// same execution environment, same document encoding, so a coordinator
// can hand the request to any worker and cache the returned bytes under
// the scenario's content address.
func Execute(ctx context.Context, req SubmitRequest, opts ExecOptions) (*ExecResult, error) {
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, apiErr)
	}
	if sh := opts.Shard; sh != nil && (sh.Count != sc.shards || sh.Index < 0 || sh.Index >= sh.Count) {
		return nil, fmt.Errorf("%w: assignment is shard %d/%d but the request shards %d ways",
			ErrInvalidRequest, sh.Index, sh.Count, sc.shards)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	every := opts.CheckpointEvery
	if every == 0 {
		every = 100_000
	}
	warm := opts.Warmups
	if warm == nil {
		warm = sweep.NewSnapshotCache("")
		warm.SetMaxEntries(warmCacheEntries)
	}
	env := &execEnv{
		warm:      warm,
		store:     opts.Checkpoints,
		ckptEvery: every,
		counters:  &envCounters{},
	}
	if opts.OnEngine != nil {
		env.probe = obs.NewSimProbe()
	}
	pool := sweep.NewBudget(workers)
	sink := callbackSink{opts}
	if opts.OnTelemetry != nil {
		env.telemetry = func(s obs.TelemetrySnapshot) { backend.SinkTelemetry(sink, s) }
		env.telEvery = opts.TelemetryEvery
	}
	doc, runErrs, err := executeScenario(ctx, sc, env, pool, sink, opts.Shard)
	if err != nil {
		return nil, err
	}
	return &ExecResult{Doc: doc, RunErrs: runErrs, Name: sc.name, Hash: sc.hash, Seed: sc.seed}, nil
}

// callbackSink adapts ExecOptions callbacks to the backend.Sink the
// execution layer drives.
type callbackSink struct{ o ExecOptions }

func (c callbackSink) Progress(done, total int, key string) {
	if c.o.OnProgress != nil {
		c.o.OnProgress(done, total, key)
	}
}

func (c callbackSink) Resumed(key string, cycle uint64) {
	if c.o.OnResumed != nil {
		c.o.OnResumed(key, cycle)
	}
}

func (c callbackSink) Checkpoint(key string, cycle uint64) {
	if c.o.OnCheckpoint != nil {
		c.o.OnCheckpoint(key, cycle)
	}
}

// Engine implements backend.EngineSink so probe snapshots emitted at
// chunk boundaries reach the OnEngine callback.
func (c callbackSink) Engine(s obs.ProbeSnapshot) {
	if c.o.OnEngine != nil {
		c.o.OnEngine(s)
	}
}

// Telemetry implements backend.TelemetrySink so machine-telemetry
// samples emitted by the wall-clock pump reach the OnTelemetry callback.
func (c callbackSink) Telemetry(s obs.TelemetrySnapshot) {
	if c.o.OnTelemetry != nil {
		c.o.OnTelemetry(s)
	}
}
