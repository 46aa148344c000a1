package core

import (
	"fmt"

	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/sim"
	"hornet/internal/snapshot"
)

// Space-parallel sharding at the system level. Every shard process
// builds the *full* system from the same validated config — topology,
// routers, seeds, frontends — so wiring and per-tile RNG streams are
// bit-identical to the single-process run, then restricts its engine to
// one contiguous tile span. At each synchronization point the engine's
// barrier leader calls the shard coupler, which captures boundary state
// (internal/noc's ShardBoundary) and the shard's vote into one container
// and trades it through the ShardPeer's all-gather (the serve
// coordinator over HTTP, or an in-process group). Every shard then folds
// all the votes with sim.DecideShardSync — in member order, so every
// shard takes the same decision — and applies every shard's boundary
// state. After the run, ShardGather trades per-span statistics through
// the same all-gather so shard 0 can produce the exact Document the
// single-process run would have written. The two kinds of payload carry
// different sections, so one arriving where the other is expected is an
// error, never misread.

// ShardPeer is the transport connecting one shard to its group: an
// all-gather. Exchange contributes this shard's payload and returns every
// shard's payload in member order, its own included. A group that lost a
// member answers with a *sim.ShardRestartError instead.
type ShardPeer interface {
	Exchange(payload []byte) ([][]byte, error)
}

// shardState is the system's sharding context once enabled.
type shardState struct {
	index, count int
	lo, hi       int
	peer         ShardPeer
	boundary     *noc.ShardBoundary
}

const secShardVote = "shard-vote"

// shardCoupler adapts the system's boundary exchange to the engine's
// per-synchronization-point callback.
type shardCoupler struct {
	st *shardState
}

func (c *shardCoupler) Sync(vote sim.ShardVote) (sim.ShardDecision, error) {
	snap, err := c.st.boundary.Capture(vote.Cycle)
	if err != nil {
		return sim.ShardDecision{}, err
	}
	w := snap.Section(secShardVote)
	w.Bool(vote.Join)
	w.Uint64(vote.Cycle)
	w.Uint64(vote.End)
	w.Int64(vote.Inflight)
	w.Uint64(vote.Earliest)
	w.Bool(vote.Stop)
	w.Bool(vote.Done)
	payload, err := snap.Bytes()
	if err != nil {
		return sim.ShardDecision{}, fmt.Errorf("core: shard sync payload: %w", err)
	}
	payloads, err := c.st.peer.Exchange(payload)
	if err != nil {
		return sim.ShardDecision{}, err
	}
	votes := make([]sim.ShardVote, len(payloads))
	snaps := make([]*snapshot.Snapshot, len(payloads))
	for i, p := range payloads {
		if snaps[i], votes[i], err = decodeSyncPayload(p); err != nil {
			return sim.ShardDecision{}, fmt.Errorf("core: shard %d sync payload: %w", i, err)
		}
	}
	dec, err := sim.DecideShardSync(votes)
	if err != nil {
		return sim.ShardDecision{}, err
	}
	// Capture strictly precedes Apply: applying pops mutates the replica
	// buffers Capture indexes into.
	for _, snap := range snaps {
		if err := c.st.boundary.Apply(snap); err != nil {
			return sim.ShardDecision{}, err
		}
	}
	return dec, nil
}

// decodeSyncPayload opens one shard's synchronization-point container and
// reads its vote.
func decodeSyncPayload(p []byte) (*snapshot.Snapshot, sim.ShardVote, error) {
	var v sim.ShardVote
	snap, err := snapshot.DecodeBytes(p)
	if err != nil {
		return nil, v, err
	}
	r, err := snap.Open(secShardVote)
	if err != nil {
		return nil, v, err
	}
	v.Join = r.Bool()
	v.Cycle = r.Uint64()
	v.End = r.Uint64()
	v.Inflight = r.Int64()
	v.Earliest = r.Uint64()
	v.Stop = r.Bool()
	v.Done = r.Bool()
	return snap, v, r.Close()
}

// EnableSharding restricts the system to the tile span owned by shard
// index out of count and installs the peer used at every
// synchronization point. Call after all frontends are attached and —
// when resuming — after Restore, so the boundary bookkeeping baselines
// against the restored state. Sharding requires cycle-accurate
// synchronization (sync period 1); members meet once per cycle, as the
// engine's workers do (noc.ShardBoundary).
func (s *System) EnableSharding(index, count int, peer ShardPeer) error {
	if s.shard != nil {
		return fmt.Errorf("core: sharding already enabled")
	}
	if peer == nil {
		return fmt.Errorf("core: sharding needs a peer")
	}
	n := len(s.tiles)
	if count < 2 || count > n || index < 0 || index >= count {
		return fmt.Errorf("core: bad shard index/count %d/%d for %d tiles", index, count, n)
	}
	if rs := s.restoredShard; rs != nil && (rs.index != index || rs.count != count) {
		return fmt.Errorf("core: restored snapshot belongs to shard %d/%d, not %d/%d",
			rs.index, rs.count, index, count)
	}
	lo, hi := sim.ShardSpan(n, count, index)
	routers := make([]*noc.Router, n)
	for i, t := range s.tiles {
		routers[i] = t.Router
	}
	st := &shardState{
		index: index, count: count, lo: lo, hi: hi,
		peer:     peer,
		boundary: noc.NewShardBoundary(routers, lo, hi),
	}
	if err := s.engine.SetShard(index, count, &shardCoupler{st: st}, s.shardDone(lo, hi)); err != nil {
		return err
	}
	s.shard = st
	return nil
}

// ShardSpan returns the enabled shard's tile span [lo,hi), or (0,n) when
// the system is not sharded.
func (s *System) ShardSpan() (lo, hi int) {
	if s.shard == nil {
		return 0, len(s.tiles)
	}
	return s.shard.lo, s.shard.hi
}

// ShardIndex returns (index, count) of the enabled shard, or (0, 1).
func (s *System) ShardIndex() (int, int) {
	if s.shard == nil {
		return 0, 1
	}
	return s.shard.index, s.shard.count
}

// shardDone builds the span-local completion predicate the group
// decision ANDs across shards. It is the exact decomposition of
// CoresHalted: per-span core/drain conditions here, the global
// in-flight sum in the decision layer. Synthetic- and trace-driven
// systems have no completion predicate (nil).
func (s *System) shardDone(lo, hi int) func() bool {
	if len(s.mipsCores) == 0 {
		return nil
	}
	var cores []*mips.Core
	for i, c := range s.mipsCores {
		if n := int(s.mipsNodes[i]); n >= lo && n < hi {
			cores = append(cores, c)
		}
	}
	tiles := s.tiles[lo:hi]
	return func() bool {
		for _, c := range cores {
			if !c.Halted() || !c.Net().Idle() {
				return false
			}
		}
		return noPendingPackets(tiles)
	}
}

const secShardStats = "shard-stats"

// ShardGather exchanges per-span statistics after the simulated phases
// complete, leaving every shard — in particular shard 0, which writes
// the Document — with the full system's per-tile statistics, identical
// to what the single-process run accumulates.
func (s *System) ShardGather() error {
	st := s.shard
	if st == nil {
		return fmt.Errorf("core: system is not sharded")
	}
	snap := snapshot.New(secShardStats, s.clock)
	w := snap.Section(secShardStats)
	w.Int(st.lo)
	w.Int(st.hi)
	for _, t := range s.tiles[st.lo:st.hi] {
		t.Stats.SaveState(w)
	}
	payload, err := snap.Bytes()
	if err != nil {
		return err
	}
	blobs, err := st.peer.Exchange(payload)
	if err != nil {
		return err
	}
	for _, b := range blobs {
		if err := s.applyShardStats(b); err != nil {
			return err
		}
	}
	return nil
}

// applyShardStats loads one shard's statistics payload into the
// corresponding replica tiles. The local span is skipped (its statistics
// are the live originals).
func (s *System) applyShardStats(blob []byte) error {
	snap, err := snapshot.DecodeBytes(blob)
	if err != nil {
		return fmt.Errorf("core: shard stats blob: %w", err)
	}
	r, err := snap.Open(secShardStats)
	if err != nil {
		return fmt.Errorf("core: shard stats blob: %w", err)
	}
	lo := r.Int()
	hi := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if lo < 0 || hi > len(s.tiles) || lo >= hi {
		return fmt.Errorf("core: shard stats blob spans [%d,%d) of %d tiles", lo, hi, len(s.tiles))
	}
	if lo == s.shard.lo && hi == s.shard.hi {
		return nil
	}
	for _, t := range s.tiles[lo:hi] {
		if err := t.Stats.LoadState(r); err != nil {
			return err
		}
	}
	return r.Close()
}
