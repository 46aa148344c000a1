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

// scheduler executes jobs on a fixed pool of job workers. Concurrency is
// bounded twice, on purpose:
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

	// fleet is the remote backend, consulted first for fleet-eligible
	// jobs whenever live workers are registered; everything else runs in
	// this process (executeLocal).
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

// cancelJobs cancels the base context every job derives from without
// draining the workers. Shutdown calls it before closing the fleet, so
// remote tasks the fleet hands back with ErrNoWorkers find their job
// already cancelled instead of failing over into a doomed local
// re-execution.
func (s *scheduler) cancelJobs() {
	s.baseCancel()
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

// run executes one job through an execution backend. Fleet-eligible
// jobs (config/batch/mips — the kinds whose requests serialize into a
// self-contained task) go to the remote backend whenever live workers
// are registered; everything else, and any task the fleet hands back
// with ErrNoWorkers (the fleet emptied while the task waited), runs on
// the in-process backend. The fallback resumes from whatever
// checkpoint blobs dead workers uploaded before the fleet died.
func (s *scheduler) run(j *job) ([]byte, int, error) {
	t := j.task()
	sink := jobSink{j: j, m: s.metrics}
	if s.fleet != nil && fleetEligible(j.sc) && j.restore != nil {
		// A journal-restored job's pre-crash fleet needs a rejoin window:
		// the restarted coordinator's registry is empty until the workers'
		// next heartbeat gets worker_unknown and they re-register. Without
		// this grace the job would instantly fall back to local execution
		// and the still-running remote work would be cancelled as
		// unadopted. Sharded jobs need the whole group co-schedulable.
		min := 1
		if j.sc.shards >= 2 {
			min = j.sc.shards
		}
		if s.fleet.AwaitCapacity(j.ctx, min) {
			s.logger().Info("fleet rejoined for restored job", obs.Job(j.Info().ID))
		}
	}
	if s.fleet != nil && fleetEligible(j.sc) && s.fleet.Live() > 0 {
		j.setBackend("fleet")
		b, runErrs, err := s.fleet.Execute(j.ctx, t, sink)
		if !errors.Is(err, backend.ErrNoWorkers) {
			if err == nil {
				s.remoteJobs.Add(1)
			}
			return b, runErrs, err
		}
		// A cancelled job gains nothing from a local fallback; this is
		// also the shutdown path (Close cancels jobs, then closes the
		// fleet, which fails in-flight tasks with ErrNoWorkers).
		if err := j.ctx.Err(); err != nil {
			return nil, 0, err
		}
		s.fallbackJobs.Add(1)
		s.logger().Info("fleet emptied mid-job; falling back to local execution", obs.Job(j.Info().ID))
	}
	j.setBackend("local")
	return s.executeLocal(j.ctx, t, sink)
}

// fleetEligible reports whether a scenario can execute on a remote
// worker. Figure scenarios stay local: serial (wall-clock) figures are
// timing experiments of *this* host, and figure documents draw on the
// registry identity rather than a serializable request.
func fleetEligible(sc *scenario) bool { return sc.fig == nil }

// jobSink adapts a job to the backend.Sink the execution backends
// drive: engine snapshots fold into the job (and into the server's engine
// series when metrics are wired), lifecycle notes land on the job's trace
// timeline.
type jobSink struct {
	j *job
	m *serveMetrics
}

func (s jobSink) Progress(done, total int, key string) { s.j.progress(done, total, key) }
func (s jobSink) Resumed(key string, cycle uint64)     { s.j.noteResumed(key, cycle) }
func (s jobSink) Checkpoint(key string, cycle uint64)  { s.j.noteCheckpoint(key, cycle) }

func (s jobSink) Engine(snap obs.ProbeSnapshot) {
	if d, ok := s.j.setEngine(snap); ok && s.m != nil {
		s.m.engine.Observe(d)
	}
}

// Telemetry folds one executor's machine-telemetry sample into the
// job's merged full-machine view (sharded jobs contribute one tile
// span per member).
func (s jobSink) Telemetry(snap obs.TelemetrySnapshot) { s.j.setTelemetry(snap) }

func (s jobSink) Note(event string, fields map[string]string) { s.j.note(event, fields) }

// executeLocal runs a task in this process, on the scheduler's shared
// execution environment (warmup cache, checkpoint store, CPU pool).
func (s *scheduler) executeLocal(ctx context.Context, t *backend.Task, sink backend.Sink) ([]byte, int, error) {
	sc := t.Compiled.(*scenario)
	env := s.env
	if len(t.Checkpoints) > 0 {
		// A migrated task: seed the uploaded blobs into a checkpoint
		// store so the runs resume instead of restarting. Without a
		// daemon checkpoint directory the blobs live in a job-scoped
		// memory store.
		store := env.store
		if store == nil {
			store = NewMemCheckpointStore()
			env = env.withStore(store)
		}
		for key, blob := range t.Checkpoints {
			_ = store.Save(key, blob.Data, blob.Cycle)
		}
	}
	if sc.shards >= 2 {
		return s.executeShardedLocal(ctx, sc, env, sink)
	}
	// Every locally executed job gets a fresh engine probe so the daemon
	// can report cycles/sec and barrier-vs-compute time per running job.
	return executeScenario(ctx, sc, env, s.pool, sink, obs.NewSimProbe(), nil)
}

// executeShardedLocal runs every member of a space-parallel task inside
// the daemon process — the fallback when no fleet worker can take the
// job (and the reference path proving sharding changes no result
// bytes). Members are ordinary executions of the compiled scenario on
// the daemon's own environment (its checkpoint store, counters and
// logger), coordinating through an in-process ShardGroup; the CPU slots
// for the whole group are acquired from the shared pool up front,
// because members rendezvous every cycle and therefore must all run
// concurrently — leasing them one by one could deadlock against another
// job.
func (s *scheduler) executeShardedLocal(ctx context.Context, sc *scenario, env *execEnv, sink backend.Sink) ([]byte, int, error) {
	n := sc.shards
	group := backend.NewShardGroup(n)
	// Release barrier waiters if the job dies: no member may park forever
	// in a rendezvous its cancelled siblings will never reach.
	stopWatch := context.AfterFunc(ctx, func() { group.Cancel(ctx.Err()) })
	defer stopWatch()
	per := s.pool.Cap() / n
	if per < 1 {
		per = 1
	}
	granted, err := s.pool.AcquireCtx(ctx, per*n)
	if err != nil {
		return nil, 0, err
	}
	defer s.pool.Release(granted)
	if per = granted / n; per < 1 {
		// A pool narrower than the member count still runs all members
		// concurrently (the lockstep demands it); the engines just drop to
		// one worker thread each.
		per = 1
	}

	docs := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Member 0 speaks for the group: it carries the engine probe
			// and reports the run-level events, which its siblings' member
			// sinks drop. Telemetry is per tile span, so EVERY member
			// reports it, and the job merges the spans into one
			// full-machine view.
			var msink backend.Sink = backend.MemberSink{Root: sink}
			var probe *obs.SimProbe
			if i == 0 {
				msink, probe = sink, obs.NewSimProbe()
			}
			member := &ShardMember{Index: i, Count: n, Transport: group.Peer(ctx, i)}
			docs[i], _, errs[i] = executeScenario(ctx, sc, env, sweep.NewBudget(per), msink, probe, member)
			if errs[i] != nil {
				// Doom the group so siblings fail out of their barriers
				// instead of waiting for a member that already gave up.
				group.Cancel(errs[i])
			}
		}(i)
	}
	wg.Wait()
	// A failing member cancels the group with its error, so every member
	// typically reports the same failure; any non-nil error fails the job.
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return docs[0], 0, nil
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
