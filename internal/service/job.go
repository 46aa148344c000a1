package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"hornet/internal/obs"
	"hornet/internal/service/backend"
)

// job is the server-side job record: client-visible info, the compiled
// scenario, the cancellation handle, and the progress subscribers.
type job struct {
	mu     sync.Mutex
	info   JobInfo
	sc     *scenario
	req    SubmitRequest
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on terminal transition
	subs   map[int]chan Event
	nextID int
	result []byte // canonical document bytes, set on StateDone
	// finalizing is set by the finalize call that won the terminal
	// transition, for the time its record is being journaled: the state is
	// not terminal yet, but no other transition may start (guarded by mu).
	finalizing bool

	// trace is the job's span timeline (queued → dispatched → running →
	// checkpoint → migrate/rollback → done), served as Chrome
	// trace_event JSON. It has its own lock; see obs.Timeline.
	trace *obs.Timeline
	// engine folds the job's probe snapshots: stale ones are ignored for
	// info.Engine and /metrics alike.
	engine obs.EngineFold

	// telemetry holds the latest machine-telemetry sample per shard
	// index (one entry, index 0, for unsharded jobs); prevMerged is the
	// previous merged view, kept to derive counter-track rates. Guarded
	// by mu.
	telemetry  map[int]obs.TelemetrySnapshot
	prevMerged obs.TelemetrySnapshot

	// lastActive is the wall time of the last observed forward progress
	// (any progress, engine, telemetry, checkpoint or resume report);
	// stalled marks an open stall episode, re-armed by the next progress
	// observation. Both guarded by mu; read by the server's watchdog.
	lastActive time.Time
	stalled    bool
	// fellBack marks a job the in-process worker took over after the
	// last remote worker left: it counts once as a fallback job, however
	// many of its members are handed over. Guarded by mu.
	fellBack bool

	// onState, when set, receives the client-visible info snapshot of
	// every state transition (start, finalize), called OUTSIDE the job
	// lock; the durable server journals transitions through it. A terminal
	// transition is handed over BEFORE anyone can observe it (see
	// finalize). Set before the job is submitted, never mutated after.
	onState func(JobInfo)

	// restore carries what a journal replay recovered about this job:
	// the fleet task identity it held before the coordinator died and
	// the checkpoint blobs the next executor resumes from. Nil for
	// ordinary submissions. Written before submit, read by the scheduler.
	restore *restoreState

	// remote mirrors the job's journaled fleet facts (latest assignment,
	// latest promoted stable set) so journal compaction can rebuild the
	// live records without replaying the log. Guarded by mu.
	remote remoteFacts
}

// restoreState seeds a journal-replayed job: the fleet task ID it held
// when the coordinator died (Execute reuses it so the still-running
// worker can be re-adopted) and the persisted checkpoint blobs to hand
// the next executor.
type restoreState struct {
	taskID      string
	checkpoints map[string]backend.Blob
}

// remoteFacts is a job's durable fleet state for journal compaction.
type remoteFacts struct {
	taskID      string
	slots       int
	stableEpoch int
	stableCycle uint64
	stableKeys  []string
}

func newJob(id string, req SubmitRequest, sc *scenario, parent context.Context, now time.Time) *job {
	ctx, cancel := context.WithCancel(parent)
	total := len(sc.runs) // figure jobs learn their total from progress
	j := &job{
		info: JobInfo{
			ID:         id,
			Name:       sc.name,
			Kind:       sc.surface,
			State:      StateQueued,
			ConfigHash: sc.hash,
			Seed:       sc.seed,
			RunsTotal:  total,
			Created:    now,
		},
		sc:     sc,
		req:    req,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		subs:   map[int]chan Event{},
		trace:  obs.NewTimeline(id+" "+sc.name, now),
	}
	j.trace.Begin("queued", nil)
	return j
}

// task projects the job onto the backend layer's unit of work: the
// compiled identity plus the original request bytes a remote worker
// revalidates and executes.
func (j *job) task() *backend.Task {
	reqJSON, _ := json.Marshal(j.req)
	t := &backend.Task{
		JobID:    j.info.ID,
		Name:     j.sc.name,
		Hash:     j.sc.hash,
		Seed:     j.sc.seed,
		Kind:     j.sc.taskKind,
		Weight:   j.req.Workers,
		Shards:   j.sc.shards,
		Pinned:   j.sc.fig != nil,
		Request:  reqJSON,
		Compiled: j.sc,
	}
	if r := j.restore; r != nil {
		if len(r.checkpoints) > 0 {
			t.Checkpoints = make(map[string]backend.Blob, len(r.checkpoints))
			for k, b := range r.checkpoints {
				t.Checkpoints[k] = b
			}
		}
		if j.sc.shards < 2 {
			// Sharded members are never re-adopted (the rollback
			// machinery stays authoritative), so only plain tasks keep
			// their pre-crash identity.
			t.ReattachID = r.taskID
		}
	}
	return t
}

// setBackend records which worker class ("local" or "fleet") is running
// the job, and reports whether this is the job's first fallback
// dispatch.
func (j *job) setBackend(name string, fallback bool) (firstFallback bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.info.Backend = name
	firstFallback = fallback && !j.fellBack
	j.fellBack = j.fellBack || fallback
	return firstFallback
}

// Info returns a snapshot of the client-visible state.
func (j *job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// Result returns the document bytes and whether they are available.
func (j *job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.info.State == StateDone
}

// Done exposes the terminal-transition channel for long-polling.
func (j *job) Done() <-chan struct{} { return j.done }

// start moves the job to running; it reports false when the job was
// already cancelled (the scheduler then skips it).
func (j *job) start(now time.Time) bool {
	j.mu.Lock()
	if j.info.Terminal() || j.finalizing {
		j.mu.Unlock()
		return false
	}
	j.info.State = StateRunning
	j.info.Started = now
	j.lastActive = now
	// Re-arm the watchdog: a queued-stall episode ends the moment the
	// job starts executing.
	j.stalled = false
	j.broadcastLocked(Event{Type: "state", Job: j.info.ID, State: StateRunning})
	j.trace.End("queued", nil)
	j.trace.Begin("running", map[string]string{"backend": j.info.Backend})
	info, hook := j.info, j.onState
	j.mu.Unlock()
	if hook != nil {
		hook(info)
	}
	return true
}

// touchLocked records forward progress for the stall watchdog and
// closes any open stall episode.
func (j *job) touchLocked() {
	j.lastActive = time.Now()
	j.stalled = false
}

// progress records one completed run and notifies subscribers.
func (j *job) progress(done, total int, key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.touchLocked()
	j.info.RunsDone = done
	j.info.RunsTotal = total
	j.broadcastLocked(Event{Type: "progress", Job: j.info.ID, Done: done, Total: total, Key: key})
}

// noteResumed records that one of the job's runs restored a checkpoint
// instead of starting at cycle 0, and tells subscribers where.
func (j *job) noteResumed(key string, cycle uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.touchLocked()
	j.info.ResumedRuns++
	j.broadcastLocked(Event{Type: "resumed", Job: j.info.ID, Key: key, Cycle: cycle})
	j.trace.Instant("resumed", map[string]string{"key": key, "cycle": strconv.FormatUint(cycle, 10)})
}

// noteCheckpoint records one autosaved snapshot.
func (j *job) noteCheckpoint(key string, cycle uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.touchLocked()
	j.info.Checkpoints++
	j.broadcastLocked(Event{Type: "checkpoint", Job: j.info.ID, Key: key, Cycle: cycle})
	j.trace.Instant("checkpoint", map[string]string{"key": key, "cycle": strconv.FormatUint(cycle, 10)})
}

// note maps backend lifecycle annotations onto the trace timeline. It
// is called from under the fleet's lock (via backend.Sink.Note), so it
// must only touch the timeline's own lock.
func (j *job) note(event string, fields map[string]string) {
	switch event {
	case "dispatched":
		// A dispatch closes an open migration span (re-dispatch after a
		// worker died) and is a point event otherwise. A plain in-process
		// one is no event: the job's backend says it.
		j.trace.End("migrate", fields)
		if fields["backend"] == "fleet" || fields["fallback"] != "" {
			j.trace.Instant("dispatched", fields)
		}
	case "requeued":
		j.trace.Begin("migrate", fields)
	default:
		j.trace.Instant(event, fields)
	}
}

// setEngine folds one engine probe snapshot into the job: a fresh one
// becomes info.Engine and goes to SSE subscribers, and its increments are
// returned for the server's engine series; a stale one (see
// obs.EngineFold) changes nothing and reports false.
func (j *job) setEngine(snap obs.ProbeSnapshot) (obs.EngineDelta, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	d, ok := j.engine.Fold(snap)
	if !ok {
		return d, false
	}
	if d.Cycles > 0 {
		j.touchLocked()
	}
	j.info.Engine = &snap
	j.broadcastLocked(Event{Type: "engine", Job: j.info.ID, Engine: &snap})
	return d, true
}

// setTelemetry folds one executor's machine-telemetry sample into the
// job's merged view and notifies subscribers. Sharded jobs report one
// sample per member tile span; the merge presents them as a single
// full-machine snapshot. The merged view also drives the trace
// timeline's Perfetto counter tracks (injection rate, buffered flits).
//
// The published stream is monotone in cycle: a merged view behind the last
// published one is kept for the next merge but not shown — not in the job
// info, not to subscribers, not on the counter tracks. That is what a
// member's late first sample produces (the merged cycle is the minimum
// over the members heard from, and the stream may already be past it) and
// what a rollback to a checkpoint produces; frames resume once the merged
// cycle has caught up. A member that never reports is simply missing from
// the view — its span and tiles are absent and it does not hold the cycle
// back — so it can neither stall the stream nor move it backwards.
func (j *job) setTelemetry(snap obs.TelemetrySnapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.telemetry == nil {
		j.telemetry = map[int]obs.TelemetrySnapshot{}
	}
	j.telemetry[snap.Shard] = snap
	parts := make([]obs.TelemetrySnapshot, 0, len(j.telemetry))
	for _, p := range j.telemetry {
		parts = append(parts, p)
	}
	merged := obs.MergeTelemetry(parts)
	prev := j.prevMerged
	if merged.Cycle < prev.Cycle {
		return
	}
	j.prevMerged = merged
	j.info.Telemetry = &merged
	if merged.Cycle > prev.Cycle {
		j.touchLocked()
		// Counter tracks ride the trace timeline as Perfetto "C" events:
		// the measured-window injection rate since the previous sample
		// (guarded against the warmup-boundary stats reset, where the
		// cumulative counters legitimately shrink) and the instantaneous
		// network occupancy.
		if inj := merged.FlitsInjected(); inj >= prev.FlitsInjected() {
			rate := float64(inj-prev.FlitsInjected()) / float64(merged.Cycle-prev.Cycle)
			j.trace.Counter("injection_rate", map[string]float64{"flits_per_cycle": rate})
		}
		j.trace.Counter("buffer_occupancy", map[string]float64{"flits": float64(merged.BufferedFlits())})
	}
	j.broadcastLocked(Event{Type: "telemetry", Job: j.info.ID, Telemetry: &merged})
}

// checkStall is the watchdog probe: it reports true exactly once per
// stall episode — a running job whose executors have shown no forward
// progress, OR a queued job no scheduler worker has picked up, for at
// least window. The next progress observation (or the start transition,
// for queued stalls) re-arms the episode. The trace instant and
// subscriber event fire here so the caller only has to log and count.
func (j *job) checkStall(now time.Time, window time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if (j.info.State != StateRunning && j.info.State != StateQueued) || j.stalled {
		return false
	}
	last := j.lastActive
	if last.IsZero() {
		last = j.info.Started
	}
	if last.IsZero() {
		// Queued jobs have never run: the stall clock starts at admission.
		last = j.info.Created
	}
	if now.Sub(last) < window {
		return false
	}
	j.stalled = true
	j.info.Stalls++
	j.trace.Instant("stalled", map[string]string{
		"idle":  now.Sub(last).Round(time.Millisecond).String(),
		"state": j.info.State,
	})
	j.broadcastLocked(Event{Type: "stalled", Job: j.info.ID})
	return true
}

// finish marks the job done with its canonical result bytes.
func (j *job) finish(result []byte, cacheHit bool, now time.Time) {
	j.finalize(StateDone, "", now, func(info *JobInfo) {
		j.result = result
		info.CacheHit = cacheHit
		if cacheHit {
			// A cache hit never ran, so progress shows completion.
			info.RunsDone = info.RunsTotal
		}
	})
}

// coalesceFinish marks the job done with another job's result bytes
// (single-flight: an identical scenario was already in flight).
func (j *job) coalesceFinish(result []byte, now time.Time) {
	j.finalize(StateDone, "", now, func(info *JobInfo) {
		j.result = result
		info.Coalesced = true
		info.RunsDone = info.RunsTotal
	})
}

// fail marks the job failed with a diagnostic message.
func (j *job) fail(msg string, now time.Time) {
	j.finalize(StateFailed, msg, now, nil)
}

// markCanceled records the terminal canceled state.
func (j *job) markCanceled(now time.Time) {
	j.finalize(StateCanceled, "", now, nil)
}

// finalize is every terminal transition (done, failed, canceled): journal
// first, then publish. The terminal record is built under the lock, handed
// to the onState hook outside it, and only when the hook has returned does
// the job show the terminal state, close done and close the subscriber
// channels — so whoever observes completion, by any of the three, can
// restart the daemon and find the terminal record in the journal. While
// the hook runs the job still reads as running (or queued); finalizing
// keeps a racing finalize from writing a second record, start from
// journaling a transition behind the terminal one, and the call that lost
// returns without waiting. fill edits the record (and may set j.result,
// which Result does not serve before the state is done); the published
// info is the journaled record exactly, so a progress report that slips in
// while the hook runs is dropped rather than left to differ from the
// journal.
func (j *job) finalize(state, msg string, now time.Time, fill func(info *JobInfo)) {
	j.mu.Lock()
	if j.info.Terminal() || j.finalizing {
		j.mu.Unlock()
		return
	}
	j.finalizing = true
	info := j.info
	info.State = state
	info.Error = msg
	info.Finished = now
	if fill != nil {
		fill(&info)
	}
	hook := j.onState
	j.mu.Unlock()
	if hook != nil {
		hook(info)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	j.info = info
	j.finalizing = false
	j.trace.End("queued", nil)
	j.trace.End("migrate", nil)
	j.trace.End("running", nil)
	j.trace.Instant(state, nil)
	// No terminal broadcast: closing the subscriber channels makes every
	// SSE handler emit one final full snapshot, so broadcasting here
	// would duplicate the terminal frame (and without done/total counts).
	close(j.done)
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
}

// restoreTerminal rebuilds a journal-replayed job that had already
// reached a terminal state: the replayed info becomes the record
// wholesale (result bytes included for done jobs) and the terminal
// channel closes, with no broadcast and no onState journaling — the
// journal already holds these facts.
func (j *job) restoreTerminal(info JobInfo, result []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.info = info
	j.result = result
	j.trace.End("queued", nil)
	j.trace.Instant("restored", map[string]string{"state": info.State})
	close(j.done)
}

// noteAssigned mirrors a journaled fleet assignment for compaction.
func (j *job) noteAssigned(taskID string, slots int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.remote.taskID, j.remote.slots = taskID, slots
}

// noteStable mirrors a journaled stable-set promotion for compaction.
func (j *job) noteStable(epoch int, cycle uint64, keys []string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.remote.stableEpoch, j.remote.stableCycle = epoch, cycle
	j.remote.stableKeys = append([]string(nil), keys...)
}

// remoteFacts snapshots the journal-compaction state.
func (j *job) remoteFacts() remoteFacts {
	j.mu.Lock()
	defer j.mu.Unlock()
	rf := j.remote
	rf.stableKeys = append([]string(nil), j.remote.stableKeys...)
	return rf
}

// subscribe registers a progress listener. The channel is closed when the
// job reaches a terminal state (or immediately if it already has); slow
// consumers lose intermediate progress events rather than stalling the
// scheduler.
func (j *job) subscribe() (<-chan Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, 64)
	if j.info.Terminal() {
		close(ch)
		return ch, func() {}
	}
	id := j.nextID
	j.nextID++
	j.subs[id] = ch
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if c, ok := j.subs[id]; ok {
			close(c)
			delete(j.subs, id)
		}
	}
}

func (j *job) broadcastLocked(ev Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow consumer: drop the event, never block the scheduler
		}
	}
}

// jobStore indexes jobs by ID and preserves submission order.
type jobStore struct {
	mu    sync.Mutex
	byID  map[string]*job
	order []*job
	seq   int
}

func newJobStore() *jobStore {
	return &jobStore{byID: map[string]*job{}}
}

// nextID mints a monotonically increasing job ID.
func (s *jobStore) nextID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return fmt.Sprintf("job-%06d", s.seq)
}

// setSeqFloor advances the ID counter past n, so IDs minted after a
// journal replay never collide with the replayed jobs'.
func (s *jobStore) setSeqFloor(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.seq {
		s.seq = n
	}
}

func (s *jobStore) add(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[j.Info().ID] = j
	s.order = append(s.order, j)
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// list returns job snapshots in submission order (newest last).
func (s *jobStore) list() []JobInfo {
	s.mu.Lock()
	jobs := append([]*job(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.Info()
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// expire removes terminal jobs that finished before cutoff (retention
// TTL) and returns how many were dropped, plus the sum of their trace
// timelines' dropped-event counts (the server banks it so the
// trace-dropped counter survives the records). Expired jobs 404
// afterwards; their cached result documents are unaffected.
func (s *jobStore) expire(cutoff time.Time) (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := make([]*job, 0, len(s.order))
	dropped, traceDropped := 0, 0
	for _, j := range s.order {
		info := j.Info()
		if info.Terminal() && !info.Finished.IsZero() && info.Finished.Before(cutoff) {
			delete(s.byID, info.ID)
			dropped++
			traceDropped += j.trace.Dropped()
			continue
		}
		kept = append(kept, j)
	}
	s.order = kept
	return dropped, traceDropped
}

// all returns the jobs themselves (shutdown cancellation).
func (s *jobStore) all() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*job(nil), s.order...)
}

// countByState tallies jobs for the stats endpoint.
func (s *jobStore) countByState() map[string]int {
	counts := map[string]int{}
	for _, info := range s.list() {
		counts[info.State]++
	}
	return counts
}
