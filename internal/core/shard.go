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
// (internal/noc's ShardBoundary), trades it through a ShardPeer (the
// serve coordinator over HTTP, or an in-process hub in tests) together
// with the shard's vote, applies every other shard's boundary blob, and
// returns the group decision. After the run, ShardGather folds per-span
// statistics so shard 0 can produce the exact Document the
// single-process run would have written.

// ShardPeer is the transport connecting one shard to its group. Sync
// exchanges a synchronization-point vote plus the shard's boundary blob
// for the group decision plus every shard's boundary blob (own included;
// applying it is a no-op). Gather runs once after the simulation
// completes, trading per-span statistics payloads the same way.
type ShardPeer interface {
	Sync(vote sim.ShardVote, boundary []byte) (sim.ShardDecision, [][]byte, error)
	Gather(payload []byte) ([][]byte, error)
}

// ShardRestartError is returned by a ShardPeer when the group lost a
// member and rolled back: every surviving shard must abandon its current
// state, restore the coordinated checkpoint at Cycle (zero means a fresh
// build) and rejoin under the new epoch.
type ShardRestartError struct {
	Epoch uint64
	Cycle uint64
}

func (e *ShardRestartError) Error() string {
	return fmt.Sprintf("core: shard group restarted (epoch %d, checkpoint cycle %d)", e.Epoch, e.Cycle)
}

// shardState is the system's sharding context once enabled.
type shardState struct {
	index, count int
	lo, hi       int
	peer         ShardPeer
	boundary     *noc.ShardBoundary
}

// shardCoupler adapts the system's boundary exchange to the engine's
// per-synchronization-point callback.
type shardCoupler struct {
	st *shardState
}

func (c *shardCoupler) Sync(vote sim.ShardVote) (sim.ShardDecision, error) {
	blob, err := c.st.boundary.Capture(vote.Cycle)
	if err != nil {
		return sim.ShardDecision{}, err
	}
	dec, blobs, err := c.st.peer.Sync(vote, blob)
	if err != nil {
		return sim.ShardDecision{}, err
	}
	// Capture strictly precedes Apply: applying pops mutates the replica
	// buffers Capture indexes into.
	for _, b := range blobs {
		if err := c.st.boundary.Apply(b); err != nil {
			return sim.ShardDecision{}, err
		}
	}
	return dec, nil
}

// EnableSharding restricts the system to the tile span owned by shard
// index out of count and installs the peer used at every
// synchronization point. Call after all frontends are attached and —
// when resuming — after Restore, so the boundary bookkeeping baselines
// against the restored state. Sharding requires cycle-accurate
// synchronization (sync period 1) and unidirectional links: a boundary
// applies the far side's free space of the current cycle, where one
// process arbitrates a bidirectional link on the previous cycle's.
func (s *System) EnableSharding(index, count int, peer ShardPeer) error {
	if s.shard != nil {
		return fmt.Errorf("core: sharding already enabled")
	}
	if peer == nil {
		return fmt.Errorf("core: sharding needs a peer")
	}
	if s.Config.Router.Bidirectional {
		return fmt.Errorf("core: sharding does not support bidirectional links")
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
	blobs, err := st.peer.Gather(payload)
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
