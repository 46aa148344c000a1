package backend

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hornet/internal/sim"
)

// ShardGroup is the coordinator-side rendezvous of one space-parallel
// task's members: one all-gather barrier (Exchange), which the members
// meet at every synchronization point and once more for the final
// statistics exchange, and the staged→stable promotion of member
// checkpoints that makes losing a member survivable. The group never
// reads a payload: every member decides for itself over all of them.
//
// Checkpoint promotion: members autosave at group-global cycle
// boundaries (the chunk cadence is pinned to absolute multiples of
// CheckpointEvery, and the members run in cycle lockstep), so every
// member uploads a blob for the same cycles. A cycle becomes the
// group's stable restart point only once ALL members' blobs for it have
// arrived — a partial set is useless, because restarting some members
// at cycle C and others at C' would violate the lockstep the boundary
// exchange depends on.
//
// Member loss: MemberLost bumps the group epoch. Every blocked or
// subsequent Exchange carrying the old epoch gets the rollback notice —
// a *sim.ShardRestartError with the caller's blob of the stable set (nil
// = rebuild from scratch) — and rejoins at the new epoch. Determinism
// makes the rollback cheap to reason about: re-executed chunks
// re-produce byte-identical state, so survivors that were AHEAD of the
// stable cycle converge to exactly the trajectory they already ran.
type ShardGroup struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int

	epoch     int
	cancelled error

	// The barrier: round counts completed all-gathers, in holds the
	// current round's payloads by member (nil: not arrived yet), out the
	// last completed round's.
	round   int
	in, out [][]byte
	arrived int

	// staged[cycle][member] holds uploaded-but-not-yet-promoted blobs;
	// stable is the latest complete set.
	staged      map[uint64][]*stagedBlob
	stable      []*stagedBlob
	stableCycle uint64
}

// stagedBlob is one member's uploaded checkpoint: the store key it was
// saved under (needed to seed a re-dispatched member's assignment) plus
// the blob itself.
type stagedBlob struct {
	Key   string
	Cycle uint64
	Data  []byte
}

// NewShardGroup builds the rendezvous for n members.
func NewShardGroup(n int) *ShardGroup {
	g := &ShardGroup{n: n, in: make([][]byte, n), staged: map[uint64][]*stagedBlob{}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Members returns the group size.
func (g *ShardGroup) Members() int { return g.n }

// Epoch returns the current restart epoch.
func (g *ShardGroup) Epoch() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// restartLocked builds member's rollback notice for the current epoch.
func (g *ShardGroup) restartLocked(member int) *sim.ShardRestartError {
	rs := &sim.ShardRestartError{Epoch: g.epoch, Cycle: g.stableCycle}
	if g.stable != nil {
		rs.Blob = g.stable[member].Data
	}
	return rs
}

// wakeOnDone broadcasts the group condition when ctx is cancelled so
// barrier waiters can observe the cancellation.
func (g *ShardGroup) wakeOnDone(ctx context.Context) func() bool {
	return context.AfterFunc(ctx, func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
}

// Exchange is one member's arrival at the all-gather: its payload takes
// slot member of the current round, and the call blocks until all n
// members have arrived; then every caller receives all payloads in
// member order. A caller whose epoch is stale, or whose round MemberLost
// tore down, gets its rollback notice (a *sim.ShardRestartError) at
// once. A second arrival from one member in one round is an error; a
// caller whose ctx ends withdraws its arrival.
func (g *ShardGroup) Exchange(ctx context.Context, epoch, member int, payload []byte) ([][]byte, error) {
	if member < 0 || member >= g.n {
		return nil, fmt.Errorf("backend: shard member %d of a %d-member group", member, g.n)
	}
	if payload == nil {
		return nil, fmt.Errorf("backend: shard member %d sent no payload", member)
	}
	defer g.wakeOnDone(ctx)()
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.cancelled != nil:
		return nil, g.cancelled
	case epoch != g.epoch:
		return nil, g.restartLocked(member)
	case g.in[member] != nil:
		return nil, fmt.Errorf("backend: shard member %d arrived twice in one round", member)
	}
	round := g.round
	g.in[member] = payload
	if g.arrived++; g.arrived == g.n {
		g.out, g.in, g.arrived = g.in, make([][]byte, g.n), 0
		g.round++
		g.cond.Broadcast()
		return g.out, nil
	}
	for g.round == round && g.epoch == epoch && g.cancelled == nil && ctx.Err() == nil {
		g.cond.Wait()
	}
	switch {
	case g.cancelled != nil:
		return nil, g.cancelled
	case g.epoch != epoch:
		// MemberLost tore the round down, this member's payload with it.
		return nil, g.restartLocked(member)
	case g.round != round:
		return g.out, nil
	default:
		g.in[member] = nil
		g.arrived--
		return nil, ctx.Err()
	}
}

// MemberPeer is one member's end of its group, as the member's engine
// sees it (core.ShardPeer): each Exchange carries the epoch the member
// runs in, and a rollback notice moves it to the notice's epoch.
type MemberPeer struct {
	epoch    int
	exchange func(epoch int, payload []byte) ([][]byte, error)
}

// NewMemberPeer builds the end of a member joining at epoch whose
// all-gather is exchange — an HTTP call on a worker.
func NewMemberPeer(epoch int, exchange func(epoch int, payload []byte) ([][]byte, error)) *MemberPeer {
	return &MemberPeer{epoch: epoch, exchange: exchange}
}

func (p *MemberPeer) Exchange(payload []byte) ([][]byte, error) {
	payloads, err := p.exchange(p.epoch, payload)
	var rs *sim.ShardRestartError
	if errors.As(err, &rs) {
		p.epoch = rs.Epoch
	}
	return payloads, err
}

// Stage records one member's uploaded checkpoint blob and promotes the
// cycle to stable once all n members' blobs for it have arrived. It
// reports whether this upload completed a promotion, so the fleet can
// persist and journal the consistent set exactly once — staged blobs
// ahead of the stable cycle must never reach the persist tier, or a
// restarted coordinator could seed members at mismatched cycles.
func (g *ShardGroup) Stage(member int, key string, cycle uint64, data []byte) (promoted bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if member < 0 || member >= g.n {
		return false
	}
	if g.stable != nil && cycle <= g.stableCycle {
		return false // already promoted past this point
	}
	set := g.staged[cycle]
	if set == nil {
		set = make([]*stagedBlob, g.n)
		g.staged[cycle] = set
	}
	set[member] = &stagedBlob{Key: key, Cycle: cycle, Data: data}
	for _, b := range set {
		if b == nil {
			return false
		}
	}
	g.stable, g.stableCycle = set, cycle
	for c := range g.staged {
		if c <= cycle {
			delete(g.staged, c)
		}
	}
	return true
}

// StableEntry is one member's blob inside the group's stable set, in
// member order.
type StableEntry struct {
	Key   string
	Cycle uint64
	Data  []byte
}

// StableSet returns the group's current stable checkpoint set (member
// order) and its cycle; ok=false when no complete set has been
// promoted yet. The slice headers are copies; the blob bytes are
// shared and must be treated as read-only.
func (g *ShardGroup) StableSet() (cycle uint64, set []StableEntry, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stable == nil {
		return 0, nil, false
	}
	set = make([]StableEntry, len(g.stable))
	for i, b := range g.stable {
		set[i] = StableEntry{Key: b.Key, Cycle: b.Cycle, Data: b.Data}
	}
	return g.stableCycle, set, true
}

// StableBlob returns the stable checkpoint of one member (ok=false when
// the group has no complete checkpoint set yet — restart from scratch).
func (g *ShardGroup) StableBlob(member int) (key string, blob Blob, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stable == nil || member < 0 || member >= g.n {
		return "", Blob{}, false
	}
	b := g.stable[member]
	return b.Key, Blob{Cycle: b.Cycle, Data: b.Data}, true
}

// MemberLost rolls the group back: the epoch advances, the current
// round is torn down (its waiters observe the epoch change and receive
// their rollback notices), and un-promoted staged blobs are discarded —
// after the rollback the members re-execute and re-upload them
// byte-identically anyway.
func (g *ShardGroup) MemberLost() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cancelled != nil {
		return
	}
	g.epoch++
	g.in, g.arrived = make([][]byte, g.n), 0
	g.staged = map[uint64][]*stagedBlob{}
	g.cond.Broadcast()
}

// Cancel aborts the group: every current and future Exchange returns
// err. Without this, cancelling a sharded task would leave its surviving
// members parked forever in a barrier no one else will reach.
func (g *ShardGroup) Cancel(err error) {
	if err == nil {
		err = context.Canceled
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cancelled == nil {
		g.cancelled = err
	}
	g.cond.Broadcast()
}

// shardMemberIndex parses the member index out of a per-shard
// checkpoint key's trailing "-s<digits>" suffix ("<name>-<hash>-<run>-s1"
// → 1); ok=false for keys without one (unsharded checkpoints).
func shardMemberIndex(key string) (int, bool) {
	i := strings.LastIndex(key, "-s")
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(key[i+2:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// errShardGroupDone is the Cancel reason after a sharded task's root
// result arrived: any straggler member (e.g. a ghost re-dispatched
// after a post-gather death) fails out of its barriers instead of
// waiting for siblings that already finished.
var errShardGroupDone = errors.New("backend: shard group completed")

// errShardDemoted is executeSharded's answer for a task the remote
// workers cannot hold, and the Cancel reason of a group they no longer
// can: Execute runs the task again as one in-process engine.
var errShardDemoted = errors.New("backend: the remote workers cannot hold the shard group")

// demoteLocked ends every shard group the remote workers cannot hold
// (remoteTakesLocked), unless it is a restored group still held for them
// to re-register: each member finishes with errShardDemoted, and a
// running one is cancelled on its worker like an aborted task.
func (f *Fleet) demoteLocked() {
	capacity, _ := f.slotsLocked()
	now := time.Now()
	members := slices.Clone(f.queue)
	for _, w := range f.workers {
		members = slices.AppendSeq(members, maps.Values(w.tasks))
	}
	for _, p := range members {
		if p.group == nil || p.cancelled || now.Before(p.holdUntil) || f.remoteTakesLocked(p.task, capacity) {
			continue
		}
		if p.shard == 0 {
			f.log.Warn("shard group demoted to one in-process engine", shardAttrs(p)...)
		}
		p.cancelled = true
		f.finishLocked(p, nil, 0, errShardDemoted)
	}
	// abortLocked dequeues a cancelled task at once: the only cancelled
	// ones queued are those just demoted.
	f.queue = slices.DeleteFunc(f.queue, func(p *pending) bool { return p.cancelled })
}

// executeSharded fans one space-parallel task out as Shards member
// tasks through the ordinary queue/lease machinery, coordinated by a
// ShardGroup. Every member executes the FULL simulation config but
// steps only its tile span, exchanging boundary traffic at each
// synchronization point through the group, over HTTP from its remote
// worker. The root member's document — byte-identical to what any
// member (or a single-process run) produces — is the task result. A
// task the remote workers cannot hold, at once or after a worker left,
// is demoted (errShardDemoted).
func (f *Fleet) executeSharded(ctx context.Context, t *Task, sink Sink) ([]byte, int, error) {
	n := t.Shards
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if capacity, _ := f.slotsLocked(); len(t.Checkpoints) == 0 && !f.remoteTakesLocked(t, capacity) {
		f.mu.Unlock()
		return nil, 0, errShardDemoted
	}
	f.seq++
	base := fmt.Sprintf("task-%06d", f.seq)
	group := NewShardGroup(n)
	// A journal-restored task arrives with the pre-crash promoted stable
	// set in Checkpoints (one "-s<i>" key per member, all at one cycle):
	// seed it into the fresh group, so the first post-restart member loss
	// rolls the group back to that consistent cross-shard state instead
	// of cycle 0. Seeding is a re-statement of already-persisted,
	// already-journaled facts, so the promotion it completes is ignored.
	// Those blobs restore members only, so the group is held one lease TTL
	// for the remote workers to re-register before it is demoted.
	var hold time.Time
	if len(t.Checkpoints) > 0 {
		hold = time.Now().Add(f.opts.LeaseTTL)
	}
	for key, b := range t.Checkpoints {
		if i, ok := shardMemberIndex(key); ok && i < n {
			group.Stage(i, key, b.Cycle, b.Data)
		}
	}
	members := make([]*pending, n)
	for i := 0; i < n; i++ {
		mt := *t
		mt.ID = fmt.Sprintf("%s-s%d", base, i)
		// Each member loads only its own per-shard key from the seeded
		// set, so every member can carry the full map.
		mt.Checkpoints = make(map[string]Blob, len(t.Checkpoints))
		for k, b := range t.Checkpoints {
			mt.Checkpoints[k] = b
		}
		var ms Sink = MemberSink{Root: sink}
		if i == 0 {
			ms = sink
		}
		members[i] = &pending{task: &mt, sink: ms, ctx: ctx, shard: i, group: group,
			holdUntil: hold, done: make(chan struct{})}
	}
	f.queueLocked(members...)
	f.mu.Unlock()

	// The root member's terminal state decides the task: the gather
	// barrier guarantees it cannot produce a document before every
	// member finished its simulation, and waiting on the root alone
	// avoids deadlocking on a straggler that died after the gather.
	root := members[0]
	select {
	case <-root.done:
	case <-ctx.Done():
		group.Cancel(ctx.Err())
		for _, p := range members {
			f.abort(p)
		}
		<-root.done
	}
	if root.err != nil {
		group.Cancel(root.err)
	} else {
		group.Cancel(errShardGroupDone)
	}
	for _, p := range members[1:] {
		f.abort(p)
	}
	if root.err == nil && ctx.Err() != nil {
		return nil, 0, ctx.Err()
	}
	return root.doc, root.runErrs, root.err
}

// memberGroup resolves a shard-coordination push to its group, also
// refreshing the worker's lease (barrier calls can block for a while,
// but the push itself proves the worker is alive).
func (f *Fleet) memberGroup(workerID, taskID string) (*ShardGroup, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, err := f.taskFor(workerID, taskID)
	if err != nil {
		return nil, 0, err
	}
	if p.group == nil {
		return nil, 0, fmt.Errorf("backend: task %s is not sharded", taskID)
	}
	return p.group, p.shard, nil
}

// ShardExchange is one member's arrival at its group's all-gather: it
// blocks until every member of the group arrives (or the group rolls
// back or is cancelled) and returns all payloads, or the member's
// rollback notice.
func (f *Fleet) ShardExchange(ctx context.Context, workerID, taskID string, req ShardExchangeRequest) (ShardExchangeResponse, error) {
	g, shard, err := f.memberGroup(workerID, taskID)
	if err != nil {
		return ShardExchangeResponse{}, err
	}
	payloads, err := g.Exchange(ctx, req.Epoch, shard, req.Payload)
	var rs *sim.ShardRestartError
	switch {
	case errors.As(err, &rs):
		return ShardExchangeResponse{Restart: rs}, nil
	case err != nil:
		// Name the offending member: an epoch-rollback log line must
		// identify worker and shard without cross-referencing.
		return ShardExchangeResponse{}, fmt.Errorf("shard exchange (worker %s, shard %d, task %s): %w",
			workerID, shard, taskID, err)
	}
	return ShardExchangeResponse{Payloads: payloads}, nil
}
