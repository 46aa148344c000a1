package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hornet/internal/experiments"
	"hornet/internal/obs"
	"hornet/internal/service/backend"
	"hornet/internal/service/journal"
)

// Options configures a Server.
type Options struct {
	// MaxJobs is the number of jobs in flight at once; 0 means 2.
	MaxJobs int
	// Budget is the shared CPU-slot pool capacity all concurrent jobs
	// draw from; 0 means GOMAXPROCS (sweep.NewBudget clamps to >= 1).
	Budget int
	// CacheDir, if non-empty, persists result documents on disk
	// (name-hash.json, the same layout hornet-exp -out writes).
	CacheDir string

	// CheckpointDir, if non-empty, enables the checkpoint subsystem:
	// warmup snapshots persist there (warmup-<key>.snap) and config/batch
	// runs autosave their state (ckpt-<name>-<hash>-<key>.snap) every
	// CheckpointEvery cycles, so a restarted daemon resumes a resubmitted
	// job from its last snapshot instead of cycle 0.
	CheckpointDir string
	// CheckpointEvery is the autosave period in simulated cycles;
	// 0 means 100000. Fast-forwarding configurations autosave too: a
	// resumed chunk re-derives any skip the boundary interrupted, so
	// the cadence never leaks into result bytes.
	CheckpointEvery uint64

	// WorkerTTL is how long a silent hornet-worker stays registered
	// before the fleet declares it dead and migrates its tasks to the
	// survivors (checkpoints included); 0 means 15s. Workers heartbeat
	// at a third of this.
	WorkerTTL time.Duration

	// JobTTL, if positive, expires finished job records that many
	// wall-clock units after completion (GET then returns 404); cached
	// result documents are retained and keep serving resubmissions.
	JobTTL time.Duration
	// CacheMaxEntries / CacheMaxBytes bound the in-memory result cache
	// with LRU eviction; 0 means unbounded. Disk-tier entries survive
	// eviction and refault on demand.
	CacheMaxEntries int
	CacheMaxBytes   int64

	// TelemetryEvery is the wall-clock cadence at which running jobs'
	// machine telemetry (per-tile flit counters, per-link buffer
	// occupancy) is forwarded from executors to the job's merged view;
	// 0 means 500ms, negative disables telemetry entirely (locally
	// executed jobs' runs then pass their stop predicates untouched).
	TelemetryEvery time.Duration

	// StallAfter arms the stall watchdog: a running job whose executors
	// report no forward progress — or a job stuck in the queue no
	// scheduler worker ever picked up — for this long is flagged (Warn
	// log, hornet_job_stalls_total, a "stalled" trace instant and SSE
	// event). 0 disables the watchdog.
	StallAfter time.Duration

	// JournalDir, if non-empty, makes the coordinator durable: every
	// submit, state transition, fleet assignment and result key appends
	// to a write-ahead log (journal.wal) in this directory. On startup
	// the journal is replayed: finished jobs are rebuilt from the result
	// cache, in-flight ones re-enqueue from their persisted checkpoints,
	// and their still-running fleet executions are re-adopted when the
	// workers re-register. Pair it with CheckpointDir (checkpoint blobs
	// are what restored jobs resume from).
	JournalDir string

	// QueueDepth bounds accepted-but-unstarted jobs; submissions beyond
	// it get 429 queue_full with a Retry-After. 0 means 1024.
	QueueDepth int

	// TraceEventCap bounds each job's trace timeline; 0 means the
	// obs.Timeline default (512 events). Events beyond the cap are
	// dropped and counted in hornet_trace_dropped_events_total.
	TraceEventCap int

	// Logger receives structured diagnostics from every server
	// component (scheduler, fleet, checkpoint layer); nil discards them.
	Logger *slog.Logger
}

// Server is the hornet-serve HTTP handler plus its scheduler and stores.
// Create with NewDurable, mount as an http.Handler, Close on shutdown.
type Server struct {
	mux     *http.ServeMux
	jobs    *jobStore
	results *resultStore
	sched   *scheduler
	env     *execEnv
	fleet   *backend.Fleet
	log     *slog.Logger
	metrics *serveMetrics

	// jrnl is the write-ahead job journal (nil without Options.JournalDir).
	// Appends happen outside job.mu — see restore.go for the ordering rule.
	jrnl         *journal.Journal
	jobsRestored atomic.Uint64
	journalErrs  atomic.Uint64
	compacting   atomic.Bool

	jobsExpired atomic.Uint64
	// traceCap is the per-job timeline bound (Options.TraceEventCap);
	// traceDroppedExpired banks the dropped-event counts of expired jobs
	// so hornet_trace_dropped_events_total stays monotone.
	traceCap            int
	traceDroppedExpired atomic.Uint64
	jobStalls           atomic.Uint64
	closeOnce           sync.Once
	janitorStop         chan struct{}
	janitorDone         chan struct{}
	watchdogDone        chan struct{}
}

// NewDurable builds a serving stack: job store, result cache, scheduler
// workers, and — with Options.JournalDir — the job journal. A journal that
// cannot be opened or replayed is a hard error instead of a silently
// non-durable coordinator.
func NewDurable(opts Options) (*Server, error) {
	maxJobs := opts.MaxJobs
	if maxJobs < 1 {
		maxJobs = 2
	}
	every := opts.CheckpointEvery
	if every == 0 {
		every = 100_000
	}
	log := opts.Logger
	if log == nil {
		log = obs.Nop()
	}
	results := newResultStore(opts.CacheDir)
	results.setBounds(opts.CacheMaxEntries, opts.CacheMaxBytes)
	env := newExecEnv(opts.CheckpointDir, every)
	env.log = obs.Component(log, "checkpoint")
	env.telEvery = opts.TelemetryEvery
	fleet := backend.NewFleet(backend.FleetOptions{
		LeaseTTL:        opts.WorkerTTL,
		CheckpointEvery: every,
		// With a checkpoint directory, migration blobs also persist on
		// disk under the same content address the in-process worker
		// reads, so jobs survive a worker death plus a coordinator restart.
		Persist: env.store,
		Logger:  obs.Component(log, "fleet"),
	})
	s := &Server{
		mux:          http.NewServeMux(),
		jobs:         newJobStore(),
		results:      results,
		env:          env,
		fleet:        fleet,
		log:          log,
		traceCap:     opts.TraceEventCap,
		sched:        newScheduler(maxJobs, opts.Budget, opts.QueueDepth, results, env, fleet),
		janitorStop:  make(chan struct{}),
		janitorDone:  make(chan struct{}),
		watchdogDone: make(chan struct{}),
	}
	s.metrics = newServeMetrics(s)
	s.sched.log = obs.Component(log, "scheduler")
	s.sched.metrics = s.metrics
	if opts.JournalDir != "" {
		jrnl, recs, err := journal.Open(opts.JournalDir)
		if err != nil {
			s.fleet.Close()
			s.sched.stop()
			close(s.janitorStop)
			return nil, fmt.Errorf("open job journal: %w", err)
		}
		s.jrnl = jrnl
		// The fleet journals assignments itself (it is the component that
		// learns about them first).
		fleet.SetJournal(serverJournal{s})
		s.restore(recs)
	}
	go s.janitor(opts.JobTTL)
	go s.watchdog(opts.StallAfter)
	s.mux.Handle("GET /metrics", s.metrics.reg.Handler())
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /api/v1/figures", s.handleFigures)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /api/v1/validate", s.handleValidate)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.withJob(handleJob))
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.withJob(handleCancel))
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.withJob(handleResult))
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.withJob(handleEvents))
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/telemetry", s.withJob(handleTelemetry))
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.withJob(handleTrace))

	// Worker-fleet protocol (see internal/service/backend): registration,
	// long-poll dispatch, heartbeats, progress/checkpoint/result pushes.
	s.mux.HandleFunc("GET /api/v1/workers", s.handleWorkers)
	s.mux.HandleFunc("POST /api/v1/workers", s.handleWorkerRegister)
	s.mux.HandleFunc("DELETE /api/v1/workers/{id}", s.handleWorkerDeregister)
	s.mux.HandleFunc("POST /api/v1/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
	s.mux.HandleFunc("POST /api/v1/workers/{id}/poll", s.handleWorkerPoll)
	s.mux.HandleFunc("POST /api/v1/workers/{id}/tasks/{task}/events", s.handleWorkerEvent)
	s.mux.HandleFunc("PUT /api/v1/workers/{id}/tasks/{task}/checkpoints/{key}", s.handleWorkerCheckpoint)
	s.mux.HandleFunc("DELETE /api/v1/workers/{id}/tasks/{task}/checkpoints/{key}", s.handleWorkerCheckpointDrop)
	s.mux.HandleFunc("POST /api/v1/workers/{id}/tasks/{task}/result", s.handleWorkerResult)
	return s, nil
}

// ServeHTTP implements http.Handler. It resolves the route through the
// mux itself so every request is measured under its route pattern (not
// its raw path — unbounded label cardinality would bloat the registry).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Handler only resolves the pattern; dispatch still goes through the
	// mux's own ServeHTTP, which is what binds the path values.
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		pattern = "unmatched"
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	s.metrics.observeHTTP(pattern, sw.code, time.Since(start))
}

// Close cancels all in-flight jobs and stops the scheduler workers.
// Call after the HTTP listener has stopped accepting requests.
// Idempotent: shutdown paths often race (signal handler vs deferred
// cleanup), and a second Close must be a no-op, not a panic.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.janitorStop) })
	<-s.janitorDone
	<-s.watchdogDone
	// Close the journal before cancelling anything: graceful-shutdown
	// cancellations must NOT be journaled, so that still-queued and
	// in-flight jobs replay as live work on the next start instead of
	// restoring as canceled.
	if s.jrnl != nil {
		s.jrnl.Close()
	}
	// Cancel jobs before closing the fleet: Close waits for the
	// in-process runs (and their final autosaves), which then are already
	// stopping. The fleet closes before the scheduler drains so no drain
	// waits on a dead worker.
	s.sched.baseCancel()
	s.fleet.Close()
	s.sched.stop()
	now := time.Now()
	for _, j := range s.jobs.all() {
		j.cancel()
		j.markCanceled(now) // no-op for jobs already terminal
	}
}

// janitor enforces the finished-job retention TTL.
func (s *Server) janitor(ttl time.Duration) {
	s.periodic(ttl, s.janitorDone, func() {
		if n, traceDropped := s.jobs.expire(time.Now().Add(-ttl)); n > 0 {
			s.jobsExpired.Add(uint64(n))
			// Bank the expired jobs' dropped-event counts so the
			// trace-dropped counter never moves backwards.
			s.traceDroppedExpired.Add(uint64(traceDropped))
			s.log.Debug("expired finished jobs", slog.String(obs.KeyComponent, "janitor"), slog.Int("count", n))
		}
	})
}

// watchdog flags running jobs whose executors stop reporting forward
// progress (simulation clock not advancing) for at least window: one
// Warn log, one hornet_job_stalls_total increment, one "stalled" trace
// instant and SSE event per episode.
func (s *Server) watchdog(window time.Duration) {
	s.periodic(window, s.watchdogDone, func() {
		now := time.Now()
		for _, j := range s.jobs.all() {
			if j.checkStall(now, window) {
				s.jobStalls.Add(1)
				info := j.Info()
				s.log.Warn("job stalled: no forward progress",
					slog.String(obs.KeyComponent, "watchdog"), obs.Job(info.ID),
					slog.String("state", string(info.State)),
					slog.String("backend", info.Backend),
					slog.Duration("window", window))
			}
		}
	})
}

// periodic runs fn every quarter of d, clamped to [10 ms, 1 min], until
// Close, and closes done when it returns. With no d it only waits for
// Close.
func (s *Server) periodic(d time.Duration, done chan struct{}, fn func()) {
	defer close(done)
	if d <= 0 {
		<-s.janitorStop
		return
	}
	tick := time.NewTicker(min(max(d/4, 10*time.Millisecond), time.Minute))
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			fn()
		case <-s.janitorStop:
			return
		}
	}
}

// Stats snapshots scheduler and cache state (also GET /api/v1/stats).
func (s *Server) Stats() ServerStats {
	counts := s.jobs.countByState()
	return ServerStats{
		BudgetCap:    s.sched.pool.Cap(),
		BudgetInUse:  s.sched.pool.InUse(),
		BudgetPeak:   s.sched.pool.Peak(),
		JobsQueued:   counts[StateQueued],
		JobsRunning:  counts[StateRunning],
		JobsDone:     counts[StateDone],
		JobsFailed:   counts[StateFailed],
		JobsCanceled: counts[StateCanceled],

		CacheEntries:   s.results.Len(),
		CacheHits:      s.results.Hits(),
		CacheMisses:    s.results.Misses(),
		CacheWriteErrs: s.results.WriteErrs(),
		CacheEvictions: s.results.Evictions(),

		JobsExpired:   s.jobsExpired.Load(),
		CoalescedJobs: s.sched.coalesced.Load(),

		WarmupHits:   s.env.warm.Hits(),
		WarmupMisses: s.env.warm.Misses(),

		CheckpointsWritten:  s.env.counters.checkpointsWritten.Load(),
		CheckpointWriteErrs: s.env.counters.checkpointWriteErr.Load(),
		RunsResumed:         s.env.counters.runsResumed.Load(),

		RemoteJobs:   s.sched.remoteJobs.Load(),
		FallbackJobs: s.sched.fallbackJobs.Load(),
		Fleet:        s.fleet.Stats(),

		JobsRestored: s.jobsRestored.Load(),
		JournalErrs:  s.journalErrs.Load(),
		Journal:      s.journalStats(),
	}
}

// journalStats snapshots the WAL counters; zero value without a journal.
func (s *Server) journalStats() JournalStats {
	if s.jrnl == nil {
		return JournalStats{}
	}
	appended, compactions, replayed, truncated := s.jrnl.Stats()
	return JournalStats{
		Enabled:       true,
		Appended:      appended,
		Compactions:   compactions,
		Replayed:      replayed,
		TruncatedTail: truncated,
		LiveRecords:   s.jrnl.Since(),
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	var out []FigureInfo
	for _, f := range experiments.Figures() {
		out = append(out, FigureInfo{Name: f.Name, Title: f.Title, Serial: f.Serial})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// decodeSubmit reads the body POST /api/v1/jobs and /api/v1/validate
// share — strictly, and at most 16 MiB of it — answering 400 itself when
// it is malformed.
func decodeSubmit(w http.ResponseWriter, r *http.Request) (req SubmitRequest, ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeInvalidRequest,
			Message: "malformed request body: " + err.Error()})
		return req, false
	}
	return req, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeSubmit(w, r)
	if !ok {
		return
	}
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		writeError(w, http.StatusBadRequest, apiErr)
		return
	}
	j := newJob(s.jobs.nextID(), req, sc, s.sched.baseCtx, time.Now())
	j.trace.SetCap(s.traceCap)
	if s.jrnl != nil {
		j.onState = s.journalState
	}
	s.jobs.add(j)
	// Journal the submit before enqueueing: once the scheduler has the
	// job it can transition (and journal) states at any moment, and a
	// state record without its submit record is unreplayable.
	s.journalSubmit(j)
	if apiErr := s.sched.submit(j); apiErr != nil {
		j.fail(apiErr.Message, time.Now())
		j.cancel() // never enqueued: release its context registration
		status := http.StatusServiceUnavailable
		if apiErr.Code == CodeQueueFull {
			// Backpressure, not an outage: tell well-behaved clients when
			// to come back instead of letting them hammer the queue.
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, apiErr)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.list())
}

// handleJob returns the job snapshot. With ?wait=DURATION it long-polls:
// the response is delayed until the job reaches a terminal state or the
// wait elapses, whichever is first.
func handleJob(w http.ResponseWriter, r *http.Request, j *job) {
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, &APIError{Code: CodeInvalidRequest,
				Message: fmt.Sprintf("bad wait duration %q", waitStr)})
			return
		}
		const maxWait = 5 * time.Minute
		if wait > maxWait {
			wait = maxWait
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-j.Done():
		case <-timer.C:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, j.Info())
}

func handleCancel(w http.ResponseWriter, r *http.Request, j *job) {
	j.cancel()
	// A queued job can be finalized right away; a running one drains and
	// the scheduler marks it canceled when its runs return.
	if j.Info().State == StateQueued {
		j.markCanceled(time.Now())
	}
	writeJSON(w, http.StatusOK, j.Info())
}

// handleResult serves the canonical result document bytes. Because the
// store keeps raw bytes, a cached response is byte-identical to the cold
// run's; the config hash doubles as a strong ETag.
func handleResult(w http.ResponseWriter, r *http.Request, j *job) {
	info := j.Info()
	b, ready := j.Result()
	if !ready {
		code := http.StatusConflict
		msg := fmt.Sprintf("job is %s", info.State)
		if info.State == StateFailed {
			msg = "job failed: " + info.Error
		}
		writeError(w, code, &APIError{Code: CodeNotFinished, Message: msg})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", `"`+info.ConfigHash+`"`)
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// handleEvents streams job progress as Server-Sent Events: one "state"
// snapshot on connect, "progress" events as runs complete, and a final
// "state" event when the job reaches a terminal state, after which the
// stream ends.
func handleEvents(w http.ResponseWriter, r *http.Request, j *job) {
	streamSSE(w, r, j, func(ev *Event) {
		if ev == nil {
			info := j.Info()
			ev = &Event{Type: "state", Job: info.ID, State: info.State,
				Done: info.RunsDone, Total: info.RunsTotal}
		}
		writeSSE(w, *ev)
	})
}

// handleTelemetry streams the job's live machine telemetry as
// Server-Sent Events: one "telemetry" frame with the current merged
// full-machine snapshot on connect (if any sample has arrived), then
// one frame per update, plus "stalled" watchdog notices. The stream
// ends with a final "telemetry" frame when the job reaches a terminal
// state.
func handleTelemetry(w http.ResponseWriter, r *http.Request, j *job) {
	streamSSE(w, r, j, func(ev *Event) {
		if ev == nil {
			info := j.Info()
			if info.Telemetry == nil {
				return
			}
			ev = &Event{Type: "telemetry", Job: info.ID, Telemetry: info.Telemetry}
		} else if ev.Type != "telemetry" && ev.Type != "stalled" {
			return
		}
		writeSSE(w, *ev)
	})
}

// streamSSE serves j as a stream of Server-Sent Events. frame writes what
// it makes of each event, and of none (nil): the snapshot the stream opens
// with — taken after subscribing, so that no event falls between — and the
// one it ends with once the job is terminal.
func streamSSE(w http.ResponseWriter, r *http.Request, j *job, frame func(ev *Event)) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, &APIError{Code: CodeInvalidRequest,
			Message: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	events, unsubscribe := j.subscribe()
	defer unsubscribe()
	frame(nil)
	flusher.Flush()
	for {
		select {
		case ev, open := <-events:
			if !open {
				frame(nil)
				flusher.Flush()
				return
			}
			frame(&ev)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace serves the job's span timeline as Chrome trace_event
// JSON — load the body in Perfetto (ui.perfetto.dev) or chrome://tracing
// to see queued/running/checkpoint/migration spans on a timeline.
func handleTrace(w http.ResponseWriter, r *http.Request, j *job) {
	writeJSON(w, http.StatusOK, j.trace.Document())
}

// withJob resolves the {id} path value to the job h serves, answering 404
// itself when there is none.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.jobs.get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound, Message: "no such job"})
			return
		}
		h(w, r, j)
	}
}

// writeSSE emits one SSE frame: "event: <type>\ndata: <json>\n\n".
func writeSSE(w http.ResponseWriter, ev Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, apiErr *APIError) {
	writeJSON(w, status, errorBody{Err: *apiErr})
}
