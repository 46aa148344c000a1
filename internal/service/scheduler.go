package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"hornet/internal/obs"
	"hornet/internal/service/backend"
	"hornet/internal/sweep"
)

// scheduler executes jobs on a fixed pool of job workers, each handing
// its job to the fleet. Concurrency is bounded twice, on purpose:
//
//   - maxJobs job workers limit how many jobs are *in flight* (so a burst
//     of submissions queues instead of thrashing), and
//   - one shared sweep.Budget limits how many *CPU slots* all in-flight
//     jobs hold together — every simulation run, in every job, acquires
//     its engine workers from this pool, so two concurrent jobs can never
//     oversubscribe the host no matter how parallel each one is.
type scheduler struct {
	pool    *sweep.Budget
	results *resultStore
	env     *execEnv
	queue   chan *job
	wg      sync.WaitGroup

	// fleet runs every job: on a remote worker, or on the in-process
	// worker the scheduler registers with it (runLocal).
	fleet *backend.Fleet

	remoteJobs   atomic.Uint64
	fallbackJobs atomic.Uint64

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// sf tracks the in-flight job per cacheable (name, hash): concurrent
	// submissions of an identical scenario attach to the leader instead
	// of simulating twice (single-flight).
	sfMu      sync.Mutex
	sf        map[string]*job
	coalesced atomic.Uint64

	mu      sync.Mutex
	stopped bool

	// log and metrics are optional observability hooks the server wires
	// in after construction; tests leave them nil.
	log     *slog.Logger
	metrics *serveMetrics
}

// logger returns the scheduler's diagnostic logger, never nil.
func (s *scheduler) logger() *slog.Logger {
	if s.log == nil {
		return obs.Nop()
	}
	return s.log
}

// defaultQueueDepth bounds accepted-but-unstarted jobs when the server
// does not configure a bound; beyond it submissions are rejected with
// 429 queue_full + Retry-After rather than growing without bound.
const defaultQueueDepth = 1024

func newScheduler(maxJobs, budget, depth int, results *resultStore, env *execEnv, fleet *backend.Fleet) *scheduler {
	if maxJobs < 1 {
		maxJobs = 1
	}
	if depth < 1 {
		depth = defaultQueueDepth
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &scheduler{
		pool:       sweep.NewBudget(budget),
		results:    results,
		env:        env,
		fleet:      fleet,
		sf:         map[string]*job{},
		queue:      make(chan *job, depth),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	fleet.RegisterLocal(s.runLocal)
	for i := 0; i < maxJobs; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

// submit enqueues a job. It fails only when the daemon is shutting down
// or the queue is full.
func (s *scheduler) submit(j *job) *APIError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return &APIError{Code: CodeShuttingDown, Message: "server is shutting down"}
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return &APIError{Code: CodeQueueFull,
			Message: fmt.Sprintf("job queue is full (%d pending)", cap(s.queue))}
	}
}

// stop cancels every in-flight job and waits for the workers to drain.
// Queued jobs are marked canceled as the workers pop them.
func (s *scheduler) stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	// Cancel before closing the queue: workers then pop any still-queued
	// jobs with an already-cancelled context and mark them canceled
	// instead of starting them mid-shutdown.
	s.baseCancel()
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// runJob executes one job end to end: cache lookup, scenario execution
// under the shared budget, result persistence, terminal transition.
func (s *scheduler) runJob(j *job) {
	// Release the job's context registration on the scheduler's base
	// context once it is terminal, or every served job would leak a
	// cancel-child for the daemon's lifetime.
	defer j.cancel()
	// One terminal log line per job, whatever path it took; failures are
	// warnings so a default-Info fleet surfaces them.
	defer func() {
		info := j.Info()
		lvl := slog.LevelInfo
		if info.State == StateFailed {
			lvl = slog.LevelWarn
		}
		s.logger().Log(context.Background(), lvl, "job finished",
			obs.Job(info.ID), slog.String("state", info.State),
			slog.String("backend", info.Backend), slog.Bool("cache_hit", info.CacheHit),
			slog.Int("runs_done", info.RunsDone), slog.String("error", info.Error))
	}()
	sc := j.sc
	if j.ctx.Err() != nil || !j.start(time.Now()) {
		j.markCanceled(time.Now())
		return
	}
	s.logger().Debug("job started", obs.Job(j.Info().ID),
		slog.String("name", sc.name), slog.String("kind", sc.surface))
	if sc.cacheable && !j.req.NoCache {
		// Cache, then single-flight: attach to an identical in-flight
		// job rather than missing the cache twice. The loop re-checks
		// after a leader ends without a usable result (failed or
		// cancelled), so at most one job simulates at a time per key and
		// a follower never inherits a failure it didn't cause.
		key := sc.name + "-" + sc.hash
		for {
			if b, ok := s.results.Get(sc.name, sc.hash); ok {
				j.finish(b, true, time.Now())
				return
			}
			s.sfMu.Lock()
			leader, busy := s.sf[key]
			if !busy {
				s.sf[key] = j
			}
			s.sfMu.Unlock()
			if !busy {
				defer func() {
					s.sfMu.Lock()
					delete(s.sf, key)
					s.sfMu.Unlock()
				}()
				break // we lead: run the simulation below
			}
			select {
			case <-leader.Done():
			case <-j.ctx.Done():
				j.markCanceled(time.Now())
				return
			}
			if b, ok := leader.Result(); ok {
				s.coalesced.Add(1)
				j.coalesceFinish(b, time.Now())
				return
			}
		}
	}

	bytes, runErrs, err := s.run(j)
	switch {
	case errors.Is(err, context.Canceled) || j.ctx.Err() != nil:
		j.markCanceled(time.Now())
	case err != nil:
		j.fail(err.Error(), time.Now())
	default:
		// Only complete, fully successful documents enter the cache: a
		// hash hit must always mean "this exact scenario ran to the end".
		if sc.cacheable && runErrs == 0 {
			// A failed disk write degrades to memory-only serving; the
			// store counts it and /api/v1/stats surfaces the counter.
			_ = s.results.Put(sc.name, sc.hash, bytes)
		}
		if sc.single && runErrs > 0 {
			// A single simulation whose run failed is a failed job; the
			// diagnostic is in the document's run record.
			j.fail(firstRunError(bytes), time.Now())
			return
		}
		j.finish(bytes, false, time.Now())
	}
}

// run executes one job on the fleet, which places it on a remote worker
// or on the in-process worker (runLocal).
func (s *scheduler) run(j *job) ([]byte, int, error) {
	b, runErrs, err := s.fleet.Execute(j.ctx, j.task(), jobSink{j: j, sched: s})
	if err == nil && j.Info().Backend == "fleet" {
		s.remoteJobs.Add(1)
	}
	return b, runErrs, err
}

// jobSink adapts a job to the backend.Sink its executors drive: engine
// snapshots fold into the job (and into the server's engine series when
// metrics are wired), lifecycle notes land on the job's trace timeline.
type jobSink struct {
	j     *job
	sched *scheduler
}

func (s jobSink) Progress(done, total int, key string) { s.j.progress(done, total, key) }
func (s jobSink) Resumed(key string, cycle uint64)     { s.j.noteResumed(key, cycle) }
func (s jobSink) Checkpoint(key string, cycle uint64)  { s.j.noteCheckpoint(key, cycle) }

func (s jobSink) Engine(snap obs.ProbeSnapshot) {
	if d, ok := s.j.setEngine(snap); ok && s.sched.metrics != nil {
		s.sched.metrics.engine.Observe(d)
	}
}

// Telemetry publishes one executor's machine-telemetry sample as the
// job's view.
func (s jobSink) Telemetry(snap obs.TelemetrySnapshot) { s.j.setTelemetry(snap) }

// Note puts a lifecycle note on the job's trace timeline; a dispatch or
// a reattach also names the worker class now running the job, and the
// dispatch that hands the job to the in-process worker after the last
// remote worker left — once per job, as the in-process worker keeps
// what it takes — counts it as a fallback job.
func (s jobSink) Note(event string, fields map[string]string) {
	if b := fields["backend"]; b != "" {
		s.j.setBackend(b)
	}
	if fields["fallback"] != "" {
		s.sched.fallbackJobs.Add(1)
		s.sched.logger().Info("no remote worker left; running in-process", obs.Job(s.j.info.ID))
	}
	s.j.note(event, fields)
}

// runLocal is the fleet's in-process worker: it runs one task on the
// daemon's shared CPU pool and execution environment (warmup cache,
// checkpoint store), reporting straight into the job's sink. A sharded
// job runs here as one engine, on as many workers as it asks for shards
// (seal), as far as the pool allows.
func (s *scheduler) runLocal(r backend.LocalRun) {
	env := s.env
	// A migrated task resumes from the blobs its remote executors
	// uploaded. Without a daemon checkpoint directory they live in a
	// memory store of the run's own.
	for key, blob := range r.Task.Checkpoints {
		if env.store == nil {
			env = env.withStore(NewMemCheckpointStore())
		}
		_ = env.store.Save(key, blob.Data, blob.Cycle)
	}
	// Every in-process job gets a fresh engine probe so the daemon can
	// report cycles/sec and barrier-vs-compute time per running job.
	r.Done(executeScenario(r.Ctx, r.Task.Compiled.(*scenario), env, s.pool, r.Sink, obs.NewSimProbe()))
}

// firstRunError digs the run error out of an encoded single-run document
// for the job-level failure message.
func firstRunError(doc []byte) string {
	var d sweep.Document
	if err := json.Unmarshal(doc, &d); err == nil {
		for _, r := range d.Runs {
			if r.Err != "" {
				return r.Err
			}
		}
	}
	return "run failed"
}
