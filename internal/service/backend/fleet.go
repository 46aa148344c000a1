package backend

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"hornet/internal/obs"
)

// BlobStore is the optional persistence hook for uploaded checkpoint
// blobs: when the coordinator has a checkpoint directory, migration
// snapshots also land there (under the same content address the
// in-process worker reads), so a job survives both a worker death *and*
// a coordinator restart. service.CheckpointStore satisfies it.
type BlobStore interface {
	Save(key string, blob []byte, cycle uint64) error
	Remove(key string)
}

// FleetOptions configures a Fleet.
type FleetOptions struct {
	// LeaseTTL is how long a silent worker stays in the fleet; 0 means
	// 15s. Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// CheckpointEvery is the autosave cadence (simulated cycles) pushed
	// to every worker; 0 means 100000.
	CheckpointEvery uint64
	// Persist, if non-nil, additionally stores uploaded checkpoint blobs
	// under their content key.
	Persist BlobStore
	// Logger receives fleet lifecycle logs (registration, lease expiry,
	// task requeue, shard rollback); nil discards them.
	Logger *slog.Logger
}

// reattachClaim is one restored task the coordinator expects its
// pre-crash worker to still be executing. Journal replay seeds the
// table (ExpectReattach); a re-registering worker claims an entry by
// task ID, which makes the run an ordinary pending assigned to that
// worker — its pushes are accepted, into a Discard sink — until the
// restored job's Execute binds it to the job's sink and removes the
// entry. The janitor cancels entries no Execute ever bound.
type reattachClaim struct {
	jobID    string
	weight   int
	p        *pending // the claimed run; nil until a worker claims it
	worker   string   // the claiming worker's ID
	cycle    uint64   // worker-reported newest checkpoint cycle
	deadline time.Time
}

// Fleet is the one execution path: a FIFO queue of tasks, the workers
// that take them — registered hornet-worker processes and the
// coordinator's own in-process worker (RegisterLocal) — and the
// migration machinery that moves a dead worker's task (with its
// uploaded checkpoints) to a survivor. The scheduler calls Execute, the
// HTTP layer calls the worker-protocol methods; the shard half (sharded
// tasks and their groups) is in shardgroup.go.
type Fleet struct {
	opts FleetOptions
	log  *slog.Logger

	mu sync.Mutex
	// workers are the remote workers. The in-process worker, self, is
	// not among them: it has no lease, and no roster entry or fleet
	// statistic counts it.
	workers map[string]*workerState
	self    *workerState
	local   func([]LocalRun) // self's executor; nil: no in-process worker
	// localRuns counts self's running batches, which Close waits for.
	localRuns sync.WaitGroup

	queue   []*pending // unassigned tasks, FIFO; migrated tasks go first
	expect  map[string]*reattachClaim
	journal Journal // nil: no durable coordinator
	seq     int
	nextID  int
	notify  chan struct{} // replaced+closed whenever work may be available
	closed  bool

	workersJoined   uint64
	workersLost     uint64
	tasksDispatched uint64
	tasksRequeued   uint64
	tasksCompleted  uint64
	tasksAdopted    uint64
	shardRollbacks  uint64
	checkpointBytes uint64
	// peak is the most slots ever granted at once, across the workers
	// live at the time (FleetStats.FleetPeak).
	peak int

	closeOnce   sync.Once
	janitorStop chan struct{}
	janitorDone chan struct{}
}

type workerState struct {
	id       string
	capacity int
	free     int
	lastSeen time.Time
	tasks    map[string]*pending
}

// pending is one task in flight through the fleet.
type pending struct {
	task *Task
	// sink is the job's sink; a non-root shard member's is a MemberSink
	// over it, so its telemetry and the group-level notes it triggers
	// still reach the job. A claimed reattach run's is Discard until its
	// job's Execute binds it (both under the fleet lock).
	sink Sink

	// shard/group are set on space-parallel member tasks: shard is the
	// member's tile-span index and group the rendezvous shared by all
	// members of the original task.
	shard int
	group *ShardGroup

	// ctx is the job's context; stop cancels an in-process run's.
	ctx  context.Context
	stop context.CancelFunc

	grant     int // slots granted on the assigned remote worker
	cancelled bool
	// fleetBound marks a task a remote worker took, or could take when it
	// was queued; the in-process worker running it is the fallback.
	fleetBound bool
	// holdUntil keeps a restored task out of ordinary dispatch while
	// the coordinator waits for its pre-crash worker to re-claim it;
	// past the deadline the task dispatches normally from its blobs.
	holdUntil time.Time

	done    chan struct{} // closed on terminal transition
	doc     []byte
	runErrs int
	err     error
}

// shardAttrs labels a log record with a member task's identity.
func shardAttrs(p *pending) []any {
	attrs := []any{obs.Task(p.task.ID), slog.String("name", p.task.Name)}
	if p.group != nil {
		attrs = append(attrs, obs.Shard(p.shard))
	}
	return attrs
}

// NewFleet builds an empty fleet and starts its lease janitor.
func NewFleet(opts FleetOptions) *Fleet {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 100_000
	}
	log := opts.Logger
	if log == nil {
		log = obs.Nop()
	}
	f := &Fleet{
		opts:        opts,
		log:         log,
		workers:     map[string]*workerState{},
		self:        &workerState{tasks: map[string]*pending{}},
		expect:      map[string]*reattachClaim{},
		notify:      make(chan struct{}),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go f.janitor()
	return f
}

// Close fails every queued and remotely executing task, stops the
// in-process runs through their contexts and waits for them to return
// (final autosaves included), and stops the janitor. Idempotent:
// shutdown paths race (signal handler vs deferred cleanup), and a second
// Close must be a no-op, not a panic.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() { close(f.janitorStop) })
	<-f.janitorDone
	f.mu.Lock()
	f.closed = true
	terminal := f.queue
	f.queue = nil
	for _, w := range f.workers {
		for _, p := range w.tasks {
			terminal = append(terminal, p)
		}
		w.tasks = map[string]*pending{}
	}
	for _, p := range terminal {
		f.finishLocked(p, nil, 0, ErrClosed)
	}
	for _, p := range f.self.tasks {
		f.abortLocked(p)
	}
	// Drop the registry too: workers attached to a closed fleet must get
	// worker_unknown from polls/heartbeats (and then shutting_down from
	// re-registration) rather than parking in successful empty polls
	// against a dead coordinator forever.
	f.workers = map[string]*workerState{}
	f.expect = map[string]*reattachClaim{}
	f.wakeLocked()
	f.mu.Unlock()
	f.localRuns.Wait()
}

// RegisterLocal makes run the fleet's in-process worker: the
// coordinator's own CPUs, always live, taking what no remote worker may
// (remoteTakesLocked). run executes one batch — a task, or the queued
// members of one sharded task, together because members meet every
// cycle — and returns once every run has called Done. Call it once,
// before Execute.
func (f *Fleet) RegisterLocal(run func([]LocalRun)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.local = run
}

// SetJournal attaches the durable-coordinator hook. The server wires
// it right after construction, before any worker traffic.
func (f *Fleet) SetJournal(j Journal) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.journal = j
}

// SetSeqFloor advances the task-ID counter past n, so IDs minted after
// a journal replay never collide with the replayed ones.
func (f *Fleet) SetSeqFloor(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n > f.seq {
		f.seq = n
	}
}

// ExpectReattach seeds the reattach table with a task the journal says
// was executing when the coordinator died: the worker that still runs
// it may re-claim the ID when it re-registers. Called during restore,
// before the HTTP surface is up. weight is the task's slot request.
func (f *Fleet) ExpectReattach(taskID, jobID string, weight int) {
	if weight < 1 {
		weight = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.expect[taskID] = &reattachClaim{
		jobID:    jobID,
		weight:   weight,
		deadline: time.Now().Add(4 * f.opts.LeaseTTL),
	}
}

// Execute queues the task, waits for a worker to run it (surviving
// migrations), and returns the result: the canonical document bytes plus
// the number of per-run errors recorded inside it. A fleet with no
// worker that may take the task keeps it queued; Close fails it.
func (f *Fleet) Execute(ctx context.Context, t *Task, sink Sink) ([]byte, int, error) {
	if t.Shards >= 2 {
		return f.executeSharded(ctx, t, sink)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if t.Checkpoints == nil {
		t.Checkpoints = map[string]Blob{}
	}
	var p *pending
	var adoptedBy string
	var adoptedCycle uint64
	if t.ReattachID != "" {
		// A journal-restored task keeps its pre-crash identity. If the
		// worker that was executing it has already re-claimed the ID,
		// bind the claimed run to this job — no dispatch, the run never
		// stopped, and a result it pushed meanwhile is the result;
		// otherwise hold the task out of ordinary dispatch for one lease
		// TTL so the claim can still arrive.
		t.ID = t.ReattachID
		claim := f.expect[t.ID]
		delete(f.expect, t.ID)
		if claim != nil && claim.p != nil {
			p = claim.p
			// Blobs the claimed run uploaded since the restart are newer
			// than the restored ones.
			for key, b := range p.task.Checkpoints {
				if old, ok := t.Checkpoints[key]; !ok || b.Cycle >= old.Cycle {
					t.Checkpoints[key] = b
				}
			}
			p.task, p.sink, p.ctx = t, sink, ctx
			switch {
			case slices.Contains(f.queue, p):
				// Its worker left before this bind: while a remote worker
				// remains, hold the task for a re-claim; else the
				// in-process worker takes it now.
				if len(f.workers) > 0 {
					p.holdUntil = time.Now().Add(f.opts.LeaseTTL)
				}
				f.wakeLocked()
			case p.err == nil: // running, or done with its result
				adoptedBy, adoptedCycle = claim.worker, claim.cycle
			}
		}
	} else {
		f.seq++
		t.ID = fmt.Sprintf("task-%06d", f.seq)
	}
	if p == nil {
		p = &pending{task: t, sink: sink, ctx: ctx, done: make(chan struct{})}
		if t.ReattachID != "" {
			p.holdUntil = time.Now().Add(f.opts.LeaseTTL)
		}
		f.queueLocked(p)
	}
	f.mu.Unlock()
	if adoptedBy != "" {
		f.log.Info("task re-adopted by pre-restart executor",
			append(shardAttrs(p), obs.Worker(adoptedBy), slog.Uint64("cycle", adoptedCycle))...)
		sink.Note("reattached", map[string]string{"worker": adoptedBy, "task": t.ID, "backend": "fleet"})
		// The run is continuing at the worker's checkpointed frontier
		// across a coordinator restart: that is a resumed run in every
		// sense the job's resumed_runs counter cares about.
		sink.Resumed(t.ID, adoptedCycle)
	}

	select {
	case <-p.done:
	case <-ctx.Done():
		f.abort(p)
		<-p.done
	}
	if p.err == nil && ctx.Err() != nil {
		return nil, 0, ctx.Err()
	}
	return p.doc, p.runErrs, p.err
}

// abort cancels an in-flight task: a queued task terminates right away;
// an assigned one is marked cancelled. An in-process run stops through
// its context; a remote worker learns via its next heartbeat (or push)
// and acknowledges with a cancelled result push, which releases the
// assignment.
func (f *Fleet) abort(p *pending) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.abortLocked(p)
}

func (f *Fleet) abortLocked(p *pending) {
	p.cancelled = true
	if i := slices.Index(f.queue, p); i >= 0 {
		f.queue = slices.Delete(f.queue, i, i+1)
		f.finishLocked(p, nil, 0, context.Canceled)
		return
	}
	// Assigned (or already terminal): the result push resolves it.
	if p.stop != nil {
		p.stop()
	}
}

// finishLocked moves a pending to its terminal state exactly once.
func (f *Fleet) finishLocked(p *pending, doc []byte, runErrs int, err error) {
	select {
	case <-p.done:
		return
	default:
	}
	p.doc, p.runErrs, p.err = doc, runErrs, err
	if p.group != nil && err != nil {
		// A member failing terminally dooms the whole group: release its
		// siblings from the barriers they are parked in.
		p.group.Cancel(err)
	}
	if f.opts.Persist != nil {
		// The run completed or failed terminally; its migration blobs
		// are superseded by the result (or useless without a retry).
		// Keep them on failure so a resubmission can still resume.
		if err == nil {
			for key := range p.task.Checkpoints {
				f.opts.Persist.Remove(key)
			}
		}
	}
	close(p.done)
}

// Register adds (or replaces) a worker. A re-registered ID is treated
// as a fresh incarnation: the old one's tasks requeue with their
// checkpoints — except the in-flight executions the request claims in
// Running, which are re-adopted in place when the coordinator can
// still account for them (requeued by this very replacement and not
// yet re-dispatched, or expected back after a journal replay). The
// worker must cancel every claimed run absent from Adopted.
func (f *Fleet) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.Capacity < 1 {
		return RegisterResponse{}, errors.New("backend: worker capacity must be >= 1")
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return RegisterResponse{}, ErrClosed
	}
	id := req.ID
	if id == "" {
		f.nextID++
		id = fmt.Sprintf("worker-%03d", f.nextID)
	}
	if old, ok := f.workers[id]; ok {
		f.evictLocked(old, "replaced by re-registration")
	}
	w := &workerState{
		id:       id,
		capacity: req.Capacity,
		free:     req.Capacity,
		lastSeen: time.Now(),
		tasks:    map[string]*pending{},
	}
	f.workers[id] = w
	f.workersJoined++
	var adopted []string
	type bind struct {
		sink          Sink
		jobID, taskID string
		grant         int
		cycle         uint64
	}
	var binds []bind
	for _, claim := range req.Running {
		if p := f.adoptLocked(w, claim); p != nil {
			adopted = append(adopted, claim.TaskID)
			binds = append(binds, bind{p.sink, p.task.JobID, p.task.ID, p.grant, claim.Cycle})
		}
	}
	f.wakeLocked()
	capacity, _ := f.slotsLocked()
	f.log.Info("worker registered", obs.Worker(id),
		slog.Int("capacity", req.Capacity), slog.Int("fleet_capacity", capacity),
		slog.Int("claimed", len(req.Running)), slog.Int("adopted", len(adopted)))
	resp := RegisterResponse{
		ID:              id,
		LeaseTTL:        f.opts.LeaseTTL,
		HeartbeatEvery:  f.opts.LeaseTTL / 3,
		CheckpointEvery: f.opts.CheckpointEvery,
		Adopted:         adopted,
	}
	journal := f.journal
	f.mu.Unlock()
	// Sink and journal calls happen outside the fleet lock: they take
	// the job lock and fan out to SSE subscribers.
	for _, b := range binds {
		b.sink.Note("reattached", map[string]string{"worker": id, "task": b.taskID, "backend": "fleet"})
		b.sink.Resumed(b.taskID, b.cycle)
		if journal != nil {
			journal.Assigned(b.jobID, b.taskID, b.grant)
		}
	}
	return resp, nil
}

// adoptLocked tries to re-bind one claimed in-flight execution to the
// re-registering worker and returns its pending, or nil when the claim
// is refused. Two sources: a queued pending with the claimed ID
// (requeued by this worker's own eviction, or restored by journal
// replay, and not yet re-dispatched elsewhere), or a restored task
// expected back whose Execute has not arrived yet — that one becomes a
// pending of its own, with a Discard sink until Execute binds it.
// Sharded members are never adopted — a lost member already rolled its
// group back, and the rollback machinery stays authoritative.
func (f *Fleet) adoptLocked(w *workerState, claim RunningTask) *pending {
	i := slices.IndexFunc(f.queue, func(p *pending) bool { return p.task.ID == claim.TaskID })
	r := f.expect[claim.TaskID]
	var p *pending
	switch {
	case i >= 0:
		if p = f.queue[i]; p.group != nil || p.cancelled {
			return nil
		}
	case r != nil && r.p == nil:
		p = &pending{task: &Task{ID: claim.TaskID, JobID: r.jobID, Weight: r.weight,
			Checkpoints: map[string]Blob{}}, sink: Discard{}, done: make(chan struct{})}
	default:
		return nil
	}
	slots := slotsFor(p.task.Weight, w)
	if slots > w.free {
		return nil
	}
	if i >= 0 {
		f.queue = slices.Delete(f.queue, i, i+1)
	}
	if r != nil {
		r.p, r.worker, r.cycle = p, w.id, claim.Cycle
	}
	f.assignLocked(w, p, slots)
	p.holdUntil = time.Time{}
	f.tasksAdopted++
	f.log.Info("in-flight task re-adopted", append(shardAttrs(p),
		obs.Worker(w.id), slog.Uint64("cycle", claim.Cycle))...)
	return p
}

// slotsFor clamps a task's slot request to what worker w offers.
func slotsFor(weight int, w *workerState) int {
	return min(max(weight, 1), w.capacity)
}

// assignLocked makes worker w the executor of p with a grant of slots.
func (f *Fleet) assignLocked(w *workerState, p *pending, slots int) {
	w.free -= slots
	w.tasks[p.task.ID] = p
	p.grant = slots
	if w == f.self {
		return
	}
	p.fleetBound = true
	if _, inUse := f.slotsLocked(); inUse > f.peak {
		f.peak = inUse
	}
}

// slotsLocked sums the remote workers' slots: what they offer and what
// their assignments hold. Placement never grants a worker more than it
// offers, so in use never exceeds capacity.
func (f *Fleet) slotsLocked() (capacity, inUse int) {
	for _, w := range f.workers {
		capacity += w.capacity
		inUse += w.capacity - w.free
	}
	return capacity, inUse
}

// Deregister removes a worker gracefully; its tasks requeue with their
// checkpoints and migrate to the survivors.
func (f *Fleet) Deregister(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[id]
	if !ok {
		return ErrUnknownWorker
	}
	f.log.Info("worker deregistered", obs.Worker(id))
	f.evictLocked(w, "worker deregistered")
	f.wakeLocked()
	return nil
}

// evictLocked removes a worker and requeues its assigned tasks at the
// front of the queue (migrated work resumes before new work starts).
// reason labels the eviction in logs ("lease expired", ...). The caller
// wakes the workers once the registry is settled: a re-registration must
// re-adopt its own tasks before the in-process worker may take them.
func (f *Fleet) evictLocked(w *workerState, reason string) {
	delete(f.workers, w.id)
	var requeue []*pending
	for _, p := range w.tasks {
		if p.cancelled {
			f.finishLocked(p, nil, 0, context.Canceled)
			continue
		}
		if p.group != nil {
			// Losing a member rolls the whole group back: bump the epoch
			// (survivors restart from the stable cycle at their next
			// barrier call) and seed the re-dispatch with the member's
			// stable blob — NOT its latest upload, which may be ahead of
			// the cycle the survivors roll back to.
			p.group.MemberLost()
			f.shardRollbacks++
			p.task.Checkpoints = map[string]Blob{}
			if key, blob, ok := p.group.StableBlob(p.shard); ok {
				p.task.Checkpoints[key] = blob
			}
			f.log.Warn("shard member lost; group rolled back",
				append(shardAttrs(p), obs.Worker(w.id),
					slog.Int("epoch", p.group.Epoch()), slog.String("reason", reason))...)
			// Sink.Note touches only the sink's own locks, so the calls
			// are safe under f.mu (documented on Sink.Note).
			p.sink.Note("rollback", map[string]string{
				"worker": w.id,
				"shard":  strconv.Itoa(p.shard),
				"epoch":  strconv.Itoa(p.group.Epoch()),
			})
		} else {
			f.log.Warn("task requeued for migration",
				append(shardAttrs(p), obs.Worker(w.id), slog.String("reason", reason),
					slog.Int("checkpoints", len(p.task.Checkpoints)))...)
		}
		p.sink.Note("requeued", map[string]string{"worker": w.id, "task": p.task.ID})
		requeue = append(requeue, p)
		f.tasksRequeued++
	}
	w.tasks = map[string]*pending{}
	f.queue = append(requeue, f.queue...)
}

// Heartbeat refreshes a worker's lease and returns the IDs of its
// assigned tasks the coordinator wants cancelled.
func (f *Fleet) Heartbeat(id string) (HeartbeatResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[id]
	if !ok {
		return HeartbeatResponse{}, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	var resp HeartbeatResponse
	for tid, p := range w.tasks {
		if p.cancelled {
			resp.CancelTasks = append(resp.CancelTasks, tid)
		}
	}
	return resp, nil
}

// Poll hands the worker its next assignment, long-polling up to wait.
// A nil assignment with nil error means "nothing to do, poll again".
// Poll doubles as a heartbeat.
func (f *Fleet) Poll(ctx context.Context, id string, wait time.Duration) (*Assignment, error) {
	deadline := time.Now().Add(wait)
	for {
		f.mu.Lock()
		w, ok := f.workers[id]
		if !ok {
			f.mu.Unlock()
			return nil, ErrUnknownWorker
		}
		w.lastSeen = time.Now()
		if p := f.dispatchLocked(w); p != nil {
			a := assignment(p, f.opts.CheckpointEvery)
			journal := f.journal
			f.mu.Unlock()
			if journal != nil {
				journal.Assigned(p.task.JobID, a.TaskID, a.Workers)
			}
			return a, nil
		}
		ch := f.notify
		f.mu.Unlock()

		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return nil, nil
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
}

// remoteTakesLocked is the placement policy: whether task p belongs to
// the remote workers, of capacity slots in total — never when pinned to
// this host, else while one is registered; a sharded member only while
// they can hold its whole group at once. The rest is the in-process
// worker's.
func (f *Fleet) remoteTakesLocked(p *pending, capacity int) bool {
	if p.task.Pinned || len(f.workers) == 0 {
		return false
	}
	return p.group == nil || capacity >= p.group.Members()
}

// queueLocked appends new tasks to the queue and offers them to the
// workers.
func (f *Fleet) queueLocked(ps ...*pending) {
	capacity, _ := f.slotsLocked()
	for _, p := range ps {
		p.fleetBound = f.remoteTakesLocked(p, capacity)
	}
	f.queue = append(f.queue, ps...)
	f.wakeLocked()
}

// dispatchLocked assigns worker w the first queued task placement gives
// it that fits its free slots; the in-process worker's runs draw on the
// coordinator's CPU pool instead.
func (f *Fleet) dispatchLocked(w *workerState) *pending {
	now := time.Now()
	capacity, _ := f.slotsLocked()
	for i, p := range f.queue {
		if now.Before(p.holdUntil) {
			// Restored task still waiting for its pre-crash executor's
			// re-claim; don't hand it to someone else yet.
			continue
		}
		if p.ctx == nil {
			// A claimed reattach run whose job has not reached Execute
			// (adoptLocked): only its worker's next incarnation may take
			// it back, and the in-process worker has nothing to run yet.
			continue
		}
		remote := f.remoteTakesLocked(p, capacity)
		slots := 0
		if w == f.self {
			if remote {
				continue
			}
		} else if slots = slotsFor(p.task.Weight, w); !remote || slots > w.free {
			continue
		}
		f.queue = slices.Delete(f.queue, i, i+1)
		f.assignLocked(w, p, slots)
		fields := map[string]string{"task": p.task.ID, "backend": "local"}
		switch {
		case w != f.self:
			f.tasksDispatched++
			f.log.Debug("task dispatched",
				append(shardAttrs(p), obs.Worker(w.id), slog.Int("slots", slots))...)
			fields["worker"], fields["backend"] = w.id, "fleet"
		case p.fleetBound:
			fields["fallback"] = "true"
		}
		p.sink.Note("dispatched", fields)
		return p
	}
	return nil
}

// assignment is the wire form of p's dispatch to a remote worker.
func assignment(p *pending, checkpointEvery uint64) *Assignment {
	a := &Assignment{
		TaskID:          p.task.ID,
		Name:            p.task.Name,
		Hash:            p.task.Hash,
		Kind:            p.task.Kind,
		Seed:            p.task.Seed,
		Workers:         p.grant,
		CheckpointEvery: checkpointEvery,
		Request:         p.task.Request,
		Checkpoints:     maps.Clone(p.task.Checkpoints),
	}
	if p.group != nil {
		a.Shard = p.shard
		a.ShardCount = p.group.Members()
		a.ShardEpoch = p.group.Epoch()
	}
	return a
}

// placeLocalLocked hands the in-process worker every queued task
// placement gives it and starts them: each task alone, except that the
// members of one sharded task start together, as one batch.
func (f *Fleet) placeLocalLocked() {
	if f.local == nil || f.closed {
		return
	}
	groups := map[*ShardGroup][]*pending{}
	for p := f.dispatchLocked(f.self); p != nil; p = f.dispatchLocked(f.self) {
		if p.group == nil {
			f.startLocalLocked([]*pending{p})
		} else {
			groups[p.group] = append(groups[p.group], p)
		}
	}
	for _, members := range groups {
		f.startLocalLocked(members)
	}
}

// startLocalLocked runs a batch on the in-process worker, each run under
// a context of its own and reporting through finishLocal.
func (f *Fleet) startLocalLocked(batch []*pending) {
	runs := make([]LocalRun, len(batch))
	for i, p := range batch {
		var ctx context.Context
		ctx, p.stop = context.WithCancel(p.ctx)
		runs[i] = LocalRun{
			Ctx:   ctx,
			Task:  p.task,
			Sink:  p.sink,
			Shard: p.shard,
			Done:  func(doc []byte, runErrs int, err error) { f.finishLocal(p, doc, runErrs, err) },
		}
		if p.group != nil {
			runs[i].Peer = p.group.Peer(ctx, p.shard)
		}
	}
	f.localRuns.Add(1)
	go func() {
		defer f.localRuns.Done()
		f.local(runs)
	}()
}

// finishLocal completes an in-process run with its result.
func (f *Fleet) finishLocal(p *pending, doc []byte, runErrs int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p.stop()
	delete(f.self.tasks, p.task.ID)
	if p.cancelled {
		doc, runErrs, err = nil, 0, context.Canceled
	}
	f.finishLocked(p, doc, runErrs, err)
}

// taskFor resolves a worker push to its pending record, refreshing the
// worker's lease.
func (f *Fleet) taskFor(workerID, taskID string) (*pending, error) {
	w, ok := f.workers[workerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	p, ok := w.tasks[taskID]
	if !ok {
		return nil, ErrGone
	}
	if p.cancelled {
		return nil, ErrGone
	}
	return p, nil
}

// PushEvent delivers a worker's progress event to the job's sink.
func (f *Fleet) PushEvent(workerID, taskID string, ev TaskEvent) error {
	f.mu.Lock()
	p, err := f.taskFor(workerID, taskID)
	var sink Sink
	if err == nil {
		sink = p.sink
	}
	f.mu.Unlock()
	if err != nil {
		return err
	}
	// Sink calls happen outside the fleet lock: they take the job lock
	// and fan out to SSE subscribers.
	return ev.Deliver(sink)
}

// PushCheckpoint stores an uploaded snapshot blob as the task's latest
// migration state. key is the content-based store address
// ("<name>-<hash>-<runkey>") the worker's checkpoint store saves under —
// the same address a re-dispatched worker (or the in-process one) loads
// from. The corresponding job-visible "checkpoint" notification arrives
// separately through PushEvent.
func (f *Fleet) PushCheckpoint(workerID, taskID, key string, cycle uint64, blob []byte) error {
	f.mu.Lock()
	p, err := f.taskFor(workerID, taskID)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	f.checkpointBytes += uint64(len(blob))
	if p.group != nil {
		// Shard members bypass the monotone guard below: after a group
		// rollback a member legitimately re-uploads cycles BELOW its own
		// previous latest (re-executing the same trajectory, the blobs are
		// byte-identical), and each of those must reach the group's
		// staged→stable promotion or the group would never advance its
		// stable point again.
		p.task.Checkpoints[key] = Blob{Cycle: cycle, Data: blob}
		promoted := p.group.Stage(p.shard, key, cycle, blob)
		persist := f.opts.Persist
		journal := f.journal
		group := p.group
		jobID := p.task.JobID
		f.mu.Unlock()
		if promoted {
			// Only PROMOTED sets reach the persist tier: a member's
			// staged upload may be cycles ahead of group-stable, and a
			// restarted coordinator seeding members from mismatched
			// cycles would break the lockstep the group depends on. The
			// promotion is the one moment the full consistent set exists.
			scycle, set, ok := group.StableSet()
			if ok {
				if persist != nil {
					for _, e := range set {
						_ = persist.Save(e.Key, e.Data, e.Cycle) // best effort, like below
					}
				}
				if journal != nil {
					keys := make([]string, len(set))
					for i, e := range set {
						keys[i] = e.Key
					}
					journal.StablePromoted(jobID, group.Epoch(), scycle, keys)
				}
			}
		}
		return nil
	}
	// Checkpoints only move forward: a lagging upload (a stale worker
	// incarnation losing a race with the task's current executor) must
	// not replace a later snapshot — migration always resumes from the
	// furthest state.
	if old, ok := p.task.Checkpoints[key]; ok && cycle < old.Cycle {
		f.mu.Unlock()
		return nil
	}
	p.task.Checkpoints[key] = Blob{Cycle: cycle, Data: blob}
	persist := f.opts.Persist
	f.mu.Unlock()
	if persist != nil {
		_ = persist.Save(key, blob, cycle) // best effort; the in-memory blob is authoritative
	}
	return nil
}

// DropCheckpoint discards the migration blob for a completed run —
// from the in-memory task state and from the persistent tier, or a
// long-lived checkpointing coordinator would accrete one stale blob
// per completed remote run.
func (f *Fleet) DropCheckpoint(workerID, taskID, key string) error {
	f.mu.Lock()
	p, err := f.taskFor(workerID, taskID)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	delete(p.task.Checkpoints, key)
	persist := f.opts.Persist
	f.mu.Unlock()
	if persist != nil {
		persist.Remove(key)
	}
	return nil
}

// PushResult completes the task: the worker's document (or failure)
// becomes the Execute return value, and the worker's slots free up.
func (f *Fleet) PushResult(workerID, taskID string, res ResultPush) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[workerID]
	if !ok {
		return ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	p, ok := w.tasks[taskID]
	if !ok {
		return ErrGone
	}
	delete(w.tasks, taskID)
	w.free += p.grant
	switch {
	case res.Canceled || p.cancelled:
		f.finishLocked(p, nil, 0, context.Canceled)
	case res.Error != "":
		f.finishLocked(p, nil, 0, errors.New(res.Error))
	default:
		f.tasksCompleted++
		f.finishLocked(p, res.Doc, res.RunErrs, nil)
	}
	f.wakeLocked()
	return nil
}

// janitor expires workers whose lease lapsed: their tasks requeue and
// migrate — to the in-process worker once no remote worker is left.
func (f *Fleet) janitor() {
	defer close(f.janitorDone)
	period := f.opts.LeaseTTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			f.expire(time.Now().Add(-f.opts.LeaseTTL))
		case <-f.janitorStop:
			return
		}
	}
}

// expire evicts workers silent since before cutoff, retires reattach
// claims no Execute ever bound (job canceled while queued) — a claimed
// run is aborted like any other task — and wakes the workers after an
// eviction, or once a restored task's reattach hold lapses so it
// dispatches without waiting out a long-poll timeout.
func (f *Fleet) expire(cutoff time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	wake := false
	for _, w := range f.workers {
		if w.lastSeen.Before(cutoff) {
			f.log.Warn("worker lease expired", obs.Worker(w.id),
				slog.Time("last_seen", w.lastSeen), slog.Int("tasks", len(w.tasks)))
			f.evictLocked(w, "lease expired")
			f.workersLost++
			wake = true
		}
	}
	now := time.Now()
	for tid, r := range f.expect {
		if now.Before(r.deadline) {
			continue
		}
		if r.p != nil {
			f.abortLocked(r.p)
		}
		delete(f.expect, tid)
	}
	for _, p := range f.queue {
		if !p.holdUntil.IsZero() && !now.Before(p.holdUntil) {
			p.holdUntil = time.Time{}
			wake = true
		}
	}
	if wake {
		f.wakeLocked()
	}
}

// wakeLocked offers the queue to the workers: it starts what the
// in-process worker takes and wakes every parked Poll.
func (f *Fleet) wakeLocked() {
	f.placeLocalLocked()
	close(f.notify)
	f.notify = make(chan struct{})
}

// WorkersInfo lists the registered workers for the ops endpoint.
func (f *Fleet) WorkersInfo() []WorkerInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerInfo, 0, len(f.workers))
	for _, w := range f.workers {
		info := WorkerInfo{
			ID:       w.id,
			Capacity: w.capacity,
			Free:     w.free,
			LastSeen: w.lastSeen,
		}
		for tid := range w.tasks {
			info.Tasks = append(info.Tasks, tid)
		}
		sort.Strings(info.Tasks)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() FleetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	blobs := 0
	for _, p := range f.queue {
		blobs += len(p.task.Checkpoints)
	}
	for _, w := range f.workers {
		for _, p := range w.tasks {
			blobs += len(p.task.Checkpoints)
		}
	}
	capacity, inUse := f.slotsLocked()
	return FleetStats{
		WorkersLive:     len(f.workers),
		WorkersJoined:   f.workersJoined,
		WorkersLost:     f.workersLost,
		FleetCapacity:   capacity,
		FleetInUse:      inUse,
		FleetPeak:       f.peak,
		TasksQueued:     len(f.queue),
		TasksDispatched: f.tasksDispatched,
		TasksRequeued:   f.tasksRequeued,
		TasksCompleted:  f.tasksCompleted,
		TasksAdopted:    f.tasksAdopted,
		CheckpointBlobs: blobs,
		ShardRollbacks:  f.shardRollbacks,
		CheckpointBytes: f.checkpointBytes,
	}
}
