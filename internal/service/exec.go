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
// execution path shared by the fleet's in-process worker and the
// standalone Execute entry point hornet-worker uses — sharing it is what
// makes a document byte-identical no matter which process produced it.
// A panic anywhere in scenario execution (the experiments package treats
// bad runs as programming errors and panics) becomes an error, never a
// dead process.
//
// The execution reports through sink; probe, when non-nil, is attached
// to every engine it builds and its snapshots go to the sink too.
func executeScenario(ctx context.Context, sc *scenario, env *execEnv, pool *sweep.Budget, sink backend.Sink, probe *obs.SimProbe) (b []byte, runErrs int, err error) {
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
		if probe != nil {
			// Figures bypass the chunked-run path, so the probe attaches
			// through the experiment options and snapshots surface at
			// run-completion boundaries (plus once at the end) — the same
			// engine series sweep jobs feed, now for figure jobs too.
			o.Probe = probe
			o.Progress = func(done, total int, key string) {
				sink.Progress(done, total, key)
				sink.Engine(probe.Snapshot())
			}
		}
		_, doc, runErr := sc.fig.Document(o)
		if probe != nil {
			sink.Engine(probe.Snapshot())
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
				Run: env.run(sc, sink, probe, spec)}
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
// The zero value runs unobserved: no sink, no probe, no telemetry, as
// hornet-exp -scenario and the benchmark's reference runs need.
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

	// Sink receives everything the execution reports — progress,
	// resumed runs, autosaves, engine probe snapshots and machine
	// telemetry — exactly as a daemon job's sink does (a worker passes a
	// backend.EventSink that pushes each call to its coordinator). With a
	// sink, config/mips runs sample machine telemetry (per-tile flit
	// counters, per-link buffer occupancy) at engine sync points and
	// forward the freshest sample every TelemetryEvery of wall time, plus
	// once after each run. Nil drops every event and samples no
	// telemetry: runs pass their stop predicates untouched.
	Sink backend.Sink
	// Probe, if non-nil, is attached to every engine of the execution;
	// its cumulative snapshots (cycles/sec, per-partition compute vs
	// barrier time) go to Sink at every autosave-chunk boundary. Nil keeps
	// the engine hot path instrumentation-free.
	Probe *obs.SimProbe
	// TelemetryEvery is the wall-clock forwarding period of the telemetry
	// samples; 0 means 500ms, negative samples none even with a Sink.
	TelemetryEvery time.Duration
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

// Execute validates req and runs it to completion in this process. It is
// the worker-side twin of the daemon's job execution: same validation,
// same execution environment, same document encoding, so a coordinator
// can hand the request to any worker and cache the returned bytes under
// the scenario's content address.
func Execute(ctx context.Context, req SubmitRequest, opts ExecOptions) (*ExecResult, error) {
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, apiErr)
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
		telEvery:  opts.TelemetryEvery,
	}
	sink := opts.Sink
	if sink == nil {
		sink, env.telEvery = backend.Discard{}, -1
	}
	doc, runErrs, err := executeScenario(ctx, sc, env, sweep.NewBudget(workers), sink, opts.Probe)
	if err != nil {
		return nil, err
	}
	return &ExecResult{Doc: doc, RunErrs: runErrs, Name: sc.name, Hash: sc.hash, Seed: sc.seed}, nil
}
