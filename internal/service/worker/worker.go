// Package worker implements the hornet-worker side of the fleet
// protocol: register with a hornet-serve coordinator, long-poll for
// task assignments, execute them with the exact same validation and
// execution path the daemon itself uses (service.Execute), stream
// progress back, and upload checkpoint snapshots so the coordinator
// can migrate the task to another worker if this process dies.
//
// Workers are diskless: checkpoints live in memory and on the
// coordinator, never on the worker's filesystem, so a worker can be a
// throwaway container. Cancellation of Run's context is crash-stop —
// nothing is flushed or deregistered, exactly what kill -9 would do —
// and graceful drains go through Deregister, which requeues the
// worker's tasks (checkpoints included) onto the surviving fleet.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hornet/internal/obs"
	"hornet/internal/service"
	"hornet/internal/service/backend"
	"hornet/internal/sweep"
)

// Options configures a Worker.
type Options struct {
	// Coordinator is the hornet-serve base URL, e.g. "http://host:8080".
	Coordinator string
	// ID is the worker's stable identity; empty lets the coordinator
	// mint one.
	ID string
	// Capacity is the number of CPU slots offered; 0 means GOMAXPROCS.
	Capacity int
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
	// Logger receives structured lifecycle logs (registration, task
	// start/finish, lease loss); nil discards them.
	Logger *slog.Logger
	// Metrics, if non-nil, is the registry this worker registers its
	// series in (busy slots, task outcomes, checkpoint uploads, engine
	// telemetry); the caller mounts it at GET /metrics.
	Metrics *obs.Registry
	// TelemetryEvery is the wall-clock cadence at which executing tasks
	// push machine-telemetry samples (per-tile flit counters, per-link
	// buffer occupancy) to the coordinator; 0 means 500ms, negative
	// disables telemetry (the engines run with their stop predicates untouched).
	TelemetryEvery time.Duration
}

// Worker is one fleet member. Create with New, drive with Run.
type Worker struct {
	opts    Options
	log     *slog.Logger
	metrics *workerMetrics

	mu      sync.Mutex
	idle    *sync.Cond // signalled when busy slots free up
	id      string
	ckEvery uint64
	hbEvery time.Duration
	// busy is the number of capacity slots held by in-flight
	// executions; the worker keeps polling while busy < Capacity, so a
	// capacity-4 worker really runs up to four weight-1 tasks at once
	// (matching the coordinator's free-slot placement) instead of
	// stranding advertised slots.
	busy int
	// running maps task ID → cancel for the in-flight execution, so a
	// heartbeat-delivered cancellation (or a 410 push response) aborts
	// the right run.
	running map[string]context.CancelFunc
	// ckptCycle tracks the newest checkpoint cycle uploaded per
	// in-flight task; re-registration claims carry it so the
	// coordinator can record what an adopted run resumes from.
	ckptCycle map[string]uint64
	// rejoinDone is non-nil while a re-registration is in flight;
	// concurrent rejoin callers wait on it instead of racing a second
	// registration (which would evict the first and requeue its
	// freshly adopted tasks).
	rejoinDone chan struct{}
	wg         sync.WaitGroup

	// warm is the process-wide warmup snapshot cache: tasks sharing a
	// warmup prefix fork from one snapshot instead of each
	// re-simulating it, matching the coordinator's in-process worker.
	warm *sweep.SnapshotCache
}

// New returns an unregistered worker.
func New(opts Options) *Worker {
	if opts.Capacity < 1 {
		opts.Capacity = runtime.GOMAXPROCS(0)
	}
	w := &Worker{opts: opts, id: opts.ID,
		running: map[string]context.CancelFunc{}, ckptCycle: map[string]uint64{}}
	w.log = opts.Logger
	if w.log == nil {
		w.log = obs.Nop()
	}
	w.log = obs.Component(w.log, "worker")
	w.idle = sync.NewCond(&w.mu)
	w.warm = sweep.NewSnapshotCache("")
	w.warm.SetMaxEntries(32)
	w.metrics = newWorkerMetrics(w, opts.Metrics)
	return w
}

// ID returns the coordinator-assigned identity (after registration).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

func (w *Worker) httpClient() *http.Client {
	if w.opts.HTTP != nil {
		return w.opts.HTTP
	}
	return http.DefaultClient
}

// errGone mirrors the coordinator's 410: the task is no longer this
// worker's (cancelled or migrated); abandon the run.
var errGone = errors.New("worker: task gone")

// errUnknown mirrors the coordinator's 404 worker_unknown: the lease
// expired; re-register.
var errUnknown = errors.New("worker: not registered")

// doJSON issues one request and decodes the response (or its error
// envelope, mapping the protocol statuses onto errGone/errUnknown).
func (w *Worker) doJSON(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.opts.Coordinator+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeError(resp)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusError is a coordinator answer the protocol gives no meaning of
// its own: a rejected request (4xx) or a failing coordinator (5xx).
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func decodeError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env struct {
		Err service.APIError `json:"error"`
	}
	if err := json.Unmarshal(b, &env); err == nil && env.Err.Code != "" {
		switch env.Err.Code {
		case service.CodeTaskGone:
			return errGone
		case service.CodeWorkerUnknown:
			return errUnknown
		}
		return &statusError{resp.StatusCode, &env.Err}
	}
	return &statusError{resp.StatusCode, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(b))}
}

// taskPath is the coordinator path of one of this worker's tasks, or of
// something under it: "events", "result", "checkpoints/<key>", ...
func (w *Worker) taskPath(taskID, suffix string) string {
	return "/api/v1/workers/" + url.PathEscape(w.ID()) + "/tasks/" + url.PathEscape(taskID) + "/" + suffix
}

// Run registers and serves assignments until ctx is cancelled.
// Executions run concurrently up to the worker's capacity: the loop
// keeps polling while free slots remain, and each assignment's slot
// grant (Assignment.Workers, sized by the coordinator to this worker's
// free capacity) occupies that many slots for its duration.
// Cancellation is crash-stop: in-flight work is abandoned mid-push and
// the coordinator discovers the death by lease expiry. Use Deregister
// for a graceful exit.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	go w.heartbeatLoop(hbCtx)
	// Wake the slot wait below when ctx dies, or a full worker would
	// block in Wait() past cancellation.
	stopWake := context.AfterFunc(ctx, func() {
		w.mu.Lock()
		w.idle.Broadcast()
		w.mu.Unlock()
	})
	defer stopWake()
	defer w.wg.Wait() // crash-stop still joins its goroutines

	for {
		w.mu.Lock()
		for w.busy >= w.opts.Capacity && ctx.Err() == nil {
			w.idle.Wait()
		}
		w.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		a, err := w.poll(ctx)
		switch {
		case err == nil && a == nil:
			continue // long-poll timeout: poll again
		case errors.Is(err, errUnknown):
			// Lease expired, or the coordinator restarted. Re-register
			// claiming the in-flight runs: the coordinator re-adopts the
			// ones it can still account for (restart reattach, or a
			// requeue not yet re-dispatched) and the registration
			// response tells us to cancel the rest — so a stale
			// execution can never interleave with a new executor.
			w.rejoin(ctx)
			if err := ctx.Err(); err != nil {
				return err
			}
			continue
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.metrics.pollErr()
			w.log.Warn("poll failed; retrying", obs.Worker(w.ID()), obs.Err(err))
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		slots := a.Workers
		if slots < 1 {
			slots = 1
		}
		if slots > w.opts.Capacity {
			slots = w.opts.Capacity
		}
		w.mu.Lock()
		w.busy += slots
		w.mu.Unlock()
		w.wg.Add(1)
		go func(a *backend.Assignment, slots int) {
			defer w.wg.Done()
			defer func() {
				w.mu.Lock()
				w.busy -= slots
				w.idle.Broadcast()
				w.mu.Unlock()
			}()
			w.execute(ctx, a)
		}(a, slots)
	}
}

// register joins the fleet, retrying while the coordinator is
// unreachable. The request claims every in-flight execution (with its
// newest uploaded checkpoint cycle); runs the coordinator does not
// re-adopt are cancelled here — they were migrated elsewhere, or the
// coordinator that knew them is gone, and keeping them running would
// risk two executors interleaving on one task.
func (w *Worker) register(ctx context.Context) error {
	for {
		claims := w.runningClaims()
		req := backend.RegisterRequest{ID: w.ID(), Capacity: w.opts.Capacity, Running: claims}
		var resp backend.RegisterResponse
		err := w.doJSON(ctx, http.MethodPost, "/api/v1/workers", req, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.ID
			w.ckEvery = resp.CheckpointEvery
			w.hbEvery = resp.HeartbeatEvery
			w.mu.Unlock()
			w.metrics.registered()
			w.log.Info("registered with coordinator", obs.Worker(resp.ID),
				slog.Int("capacity", w.opts.Capacity),
				slog.Uint64("checkpoint_every", resp.CheckpointEvery),
				slog.Int("claimed", len(claims)), slog.Int("adopted", len(resp.Adopted)))
			if len(claims) > 0 {
				w.cancelUnadopted(claims, resp.Adopted)
			}
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.log.Warn("registration failed; retrying", obs.Worker(w.ID()), obs.Err(err))
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// runningClaims snapshots the in-flight executions for a registration
// request.
func (w *Worker) runningClaims() []backend.RunningTask {
	w.mu.Lock()
	defer w.mu.Unlock()
	claims := make([]backend.RunningTask, 0, len(w.running))
	for tid := range w.running {
		claims = append(claims, backend.RunningTask{TaskID: tid, Cycle: w.ckptCycle[tid]})
	}
	return claims
}

// cancelUnadopted aborts every claimed run the coordinator did not
// re-bind to this registration.
func (w *Worker) cancelUnadopted(claims []backend.RunningTask, adopted []string) {
	kept := make(map[string]bool, len(adopted))
	for _, tid := range adopted {
		kept[tid] = true
	}
	w.mu.Lock()
	var cancels []context.CancelFunc
	var dropped []string
	for _, c := range claims {
		if kept[c.TaskID] {
			continue
		}
		if cancel, ok := w.running[c.TaskID]; ok {
			cancels = append(cancels, cancel)
			dropped = append(dropped, c.TaskID)
		}
	}
	w.mu.Unlock()
	if len(dropped) > 0 {
		w.log.Warn("abandoning in-flight tasks not re-adopted by coordinator",
			obs.Worker(w.ID()), slog.Any("tasks", dropped))
	}
	for _, c := range cancels {
		c()
	}
}

// rejoin re-registers after a worker_unknown, single-flighted: the
// first caller performs the registration, concurrent callers wait for
// it. A second full registration right after the first would evict
// the fresh incarnation and requeue its just-adopted tasks, so the
// single-flight is load-bearing, not an optimization.
func (w *Worker) rejoin(ctx context.Context) {
	w.mu.Lock()
	if ch := w.rejoinDone; ch != nil {
		w.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
		}
		return
	}
	ch := make(chan struct{})
	w.rejoinDone = ch
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.rejoinDone = nil
		w.mu.Unlock()
		close(ch)
	}()
	if err := w.register(ctx); err != nil && ctx.Err() == nil {
		w.log.Warn("re-registration failed", obs.Worker(w.ID()), obs.Err(err))
	}
}

// Deregister leaves the fleet gracefully: assigned tasks requeue (with
// their uploaded checkpoints) onto the surviving workers.
func (w *Worker) Deregister(ctx context.Context) error {
	id := w.ID()
	if id == "" {
		return nil
	}
	return w.doJSON(ctx, http.MethodDelete, "/api/v1/workers/"+url.PathEscape(id), nil, nil)
}

// heartbeatEvery returns the current heartbeat period (re-read every
// beat: a re-registration against a coordinator with a different
// -worker-ttl must retune the cadence, or a now-shorter lease would
// keep expiring this worker mid-task).
func (w *Worker) heartbeatEvery() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hbEvery > 0 {
		return w.hbEvery
	}
	return 5 * time.Second
}

func (w *Worker) heartbeatLoop(ctx context.Context) {
	timer := time.NewTimer(w.heartbeatEvery())
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			var resp backend.HeartbeatResponse
			err := w.doJSON(ctx, http.MethodPost,
				"/api/v1/workers/"+url.PathEscape(w.ID())+"/heartbeat", struct{}{}, &resp)
			switch {
			case errors.Is(err, errUnknown):
				// The lease expired or the coordinator restarted:
				// re-register right away, claiming the in-flight runs so
				// the coordinator can re-adopt them instead of
				// re-dispatching from checkpoints.
				w.rejoin(ctx)
			case err == nil:
				for _, tid := range resp.CancelTasks {
					w.cancelTask(tid)
				}
			}
			timer.Reset(w.heartbeatEvery())
		case <-ctx.Done():
			return
		}
	}
}

func (w *Worker) cancelTask(taskID string) {
	w.mu.Lock()
	cancel := w.running[taskID]
	w.mu.Unlock()
	if cancel != nil {
		w.log.Info("coordinator cancelled task", obs.Worker(w.ID()), obs.Task(taskID))
		cancel()
	}
}

// poll long-polls for the next assignment; nil means none yet (204).
func (w *Worker) poll(ctx context.Context) (*backend.Assignment, error) {
	var a backend.Assignment
	err := w.doJSON(ctx, http.MethodPost, "/api/v1/workers/"+url.PathEscape(w.ID())+"/poll?wait=25s", nil, &a)
	if err != nil || a.TaskID == "" {
		return nil, err
	}
	return &a, nil
}

// execute runs one assignment end to end and pushes the terminal
// result. Every push is best-effort: a dead coordinator just means the
// lease expires and the task migrates.
func (w *Worker) execute(ctx context.Context, a *backend.Assignment) {
	w.log.Info("task started", obs.Worker(w.ID()), obs.Task(a.TaskID),
		slog.String("name", a.Name), slog.Int("workers", a.Workers),
		slog.Int("seeded_checkpoints", len(a.Checkpoints)))
	taskCtx, cancel := context.WithCancel(ctx)
	w.mu.Lock()
	w.running[a.TaskID] = cancel
	w.mu.Unlock()
	defer func() {
		cancel()
		w.mu.Lock()
		delete(w.running, a.TaskID)
		delete(w.ckptCycle, a.TaskID)
		w.mu.Unlock()
	}()

	var req service.SubmitRequest
	if err := json.Unmarshal(a.Request, &req); err != nil {
		w.pushResult(ctx, a.TaskID, backend.ResultPush{Error: "malformed task request: " + err.Error()})
		return
	}

	store := &remoteStore{w: w, ctx: taskCtx, taskID: a.TaskID, cancelRun: cancel,
		mem: service.NewMemCheckpointStore()}
	for key, blob := range a.Checkpoints {
		_ = store.mem.Save(key, blob.Data, blob.Cycle)
	}
	// Every sink call becomes one event push.
	push := backend.EventSink(func(ev backend.TaskEvent) {
		err := w.doJSON(taskCtx, http.MethodPost, w.taskPath(a.TaskID, "events"), ev, nil)
		switch {
		case errors.Is(err, errGone):
			// Cancelled or migrated away: the task is not ours — stop
			// simulating.
			cancel()
		case errors.Is(err, errUnknown):
			// The coordinator no longer knows this WORKER — a restart,
			// or a lease expiry we outlived. Re-register claiming the
			// in-flight runs; if this one is not re-adopted, rejoin's
			// registration response cancels it. The event itself is
			// dropped (progress pushes are best-effort anyway).
			w.rejoin(taskCtx)
		}
	})
	// The probe's snapshots are the job's engine view on the coordinator
	// and this worker's own engine series; telemetry samples are the
	// job's live machine view.
	opts := service.ExecOptions{
		Workers:         a.Workers,
		Checkpoints:     store,
		CheckpointEvery: a.CheckpointEvery,
		Warmups:         w.warm,
		Sink:            &taskSink{Sink: push, metrics: w.metrics},
		Probe:           obs.NewSimProbe(),
		TelemetryEvery:  w.opts.TelemetryEvery,
	}
	res, err := service.Execute(taskCtx, req, opts)
	switch {
	case ctx.Err() != nil:
		// Crash-stop: push nothing, the lease expiry migrates the task.
		w.finishTask(a.TaskID, "abandoned", nil)
		return
	case taskCtx.Err() != nil:
		w.finishTask(a.TaskID, "canceled", nil)
		w.pushResult(ctx, a.TaskID, backend.ResultPush{Canceled: true})
	case err != nil:
		w.finishTask(a.TaskID, "failed", err)
		w.pushResult(ctx, a.TaskID, backend.ResultPush{Error: err.Error()})
	default:
		w.finishTask(a.TaskID, "done", nil)
		w.pushResult(ctx, a.TaskID, backend.ResultPush{Doc: res.Doc, RunErrs: res.RunErrs})
	}
}

// taskSink is one task's sink: every call goes to the coordinator, and
// the engine snapshots also feed this worker's engine series. A stale
// snapshot (see obs.EngineFold) goes nowhere.
type taskSink struct {
	backend.Sink
	fold    obs.EngineFold
	metrics *workerMetrics
}

func (s *taskSink) Engine(snap obs.ProbeSnapshot) {
	d, ok := s.fold.Fold(snap)
	if !ok {
		return
	}
	s.metrics.observeEngine(d)
	s.Sink.Engine(snap)
}

// finishTask records one terminal task outcome in the log and metrics.
func (w *Worker) finishTask(taskID, outcome string, err error) {
	w.metrics.taskDone(outcome)
	attrs := []any{obs.Worker(w.ID()), obs.Task(taskID), slog.String("outcome", outcome)}
	if err != nil {
		w.log.Warn("task finished", append(attrs, obs.Err(err))...)
		return
	}
	w.log.Info("task finished", attrs...)
}

// pushResult delivers the terminal result. A result the coordinator
// never sees wedges the job — the task stays assigned to this live,
// heartbeating worker — so a push that fails in transport or on a 5xx is
// retried, backing off up to 5s, until the coordinator answers, or until
// ctx ends. task_gone is the answer a duplicate gets (the task is not
// ours any more); worker_unknown means the coordinator restarted just as
// the run finished: rejoin — the registration claims this task, which is
// in w.running until our caller's defer — and push once more. If the
// claim was adopted the result completes the job; if not, the push gets
// task_gone and the coordinator re-runs from checkpoints.
func (w *Worker) pushResult(ctx context.Context, taskID string, res backend.ResultPush) {
	rejoined := false
	for backoff := 100 * time.Millisecond; ; backoff = min(2*backoff, 5*time.Second) {
		err := w.doJSON(ctx, http.MethodPost, w.taskPath(taskID, "result"), res, nil)
		switch {
		case err == nil || errors.Is(err, errGone) || ctx.Err() != nil:
			return
		case errors.Is(err, errUnknown) && !rejoined:
			w.rejoin(ctx)
			rejoined = true
			continue
		case errors.Is(err, errUnknown) || !retryable(err):
			w.log.Warn("result push failed", obs.Worker(w.ID()), obs.Task(taskID), obs.Err(err))
			return
		}
		w.log.Warn("result push failed; retrying", obs.Worker(w.ID()), obs.Task(taskID),
			obs.Err(err), slog.Duration("backoff", backoff))
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return
		}
	}
}

// retryable reports whether a failed push may succeed if sent again: it
// got no answer, or the coordinator failed (5xx).
func retryable(err error) bool {
	var se *statusError
	return !errors.As(err, &se) || se.status >= 500
}

// remoteStore is the worker's CheckpointStore: loads are served from
// the in-memory copy (seeded by the assignment), saves upload the blob
// to the coordinator — the fleet's migration state — and keep the
// memory copy for local resume.
type remoteStore struct {
	w         *Worker
	ctx       context.Context
	taskID    string
	cancelRun context.CancelFunc
	mem       *service.MemCheckpointStore
}

func (r *remoteStore) Save(key string, blob []byte, cycle uint64) error {
	_ = r.mem.Save(key, blob, cycle)
	path := r.w.taskPath(r.taskID, "checkpoints/"+url.PathEscape(key)+"?cycle="+strconv.FormatUint(cycle, 10))
	req, err := http.NewRequestWithContext(r.ctx, http.MethodPut,
		r.w.opts.Coordinator+path, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	start := time.Now()
	resp, err := r.w.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		err := decodeError(resp)
		switch {
		case errors.Is(err, errGone):
			r.cancelRun() // the task is no longer ours: stop simulating
		case errors.Is(err, errUnknown):
			// Worker unknown: the coordinator restarted (or expired our
			// lease). Rejoin with claims; a non-adopted run is cancelled
			// by the registration response, an adopted one re-uploads at
			// its next cadence.
			r.w.rejoin(r.ctx)
		}
		return err
	}
	io.Copy(io.Discard, resp.Body)
	r.w.noteCheckpoint(r.taskID, cycle)
	r.w.metrics.uploadDone(len(blob), time.Since(start))
	return nil
}

// noteCheckpoint records the newest uploaded cycle for re-registration
// claims.
func (w *Worker) noteCheckpoint(taskID string, cycle uint64) {
	w.mu.Lock()
	if cycle > w.ckptCycle[taskID] {
		w.ckptCycle[taskID] = cycle
	}
	w.mu.Unlock()
}

func (r *remoteStore) Load(key string) ([]byte, bool) { return r.mem.Load(key) }

func (r *remoteStore) Remove(key string) {
	r.mem.Remove(key)
	// Best effort: the run finished, so the coordinator can drop the
	// migration blob; the result push supersedes it anyway.
	_ = r.w.doJSON(r.ctx, http.MethodDelete, r.w.taskPath(r.taskID, "checkpoints/"+url.PathEscape(key)), nil, nil)
}
