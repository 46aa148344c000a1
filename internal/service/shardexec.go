package service

import (
	"context"

	"hornet/internal/core"
	"hornet/internal/service/backend"
	"hornet/internal/sim"
)

// ShardTransport is the member side of a space-parallel group: the
// engine's synchronization-point exchange (core.ShardPeer) plus the
// stable-checkpoint fetch a member needs after a group rollback. Sync
// and Gather surface a rollback as *core.ShardRestartError after the
// transport adopts the new epoch.
type ShardTransport interface {
	core.ShardPeer
	// StableCheckpoint fetches this member's blob of the group's stable
	// checkpoint (ok=false: the group restarts from cycle 0).
	StableCheckpoint() (blob []byte, ok bool, err error)
}

// ShardMember places an execution in a space-parallel group
// (ExecOptions.Shard): the full system is built from the validated
// config (wiring and seeds bit-identical to a single-process run), the
// engine steps only tile span Index of Count, and boundary traffic is
// exchanged through Transport at every synchronization point. Count
// must equal the request's shards field. Any member can produce the
// document (the final gather leaves every member with the full
// statistics); the coordinator uses the root's.
type ShardMember struct {
	Index, Count int
	Transport    ShardTransport
}

// localShardTransport connects an in-process member directly to a
// backend.ShardGroup — the transport of the scheduler's local fallback,
// where every member of the group runs in the daemon process itself.
type localShardTransport struct {
	ctx   context.Context
	group *backend.ShardGroup
	shard int
	epoch int
}

func (t *localShardTransport) Sync(v sim.ShardVote, boundary []byte) (sim.ShardDecision, [][]byte, error) {
	dec, payloads, restart, err := t.group.Sync(t.ctx, t.epoch, v, boundary)
	if err != nil {
		return sim.ShardDecision{}, nil, err
	}
	if restart != nil {
		t.epoch = restart.Epoch
		return sim.ShardDecision{}, nil, &core.ShardRestartError{Epoch: uint64(restart.Epoch), Cycle: restart.Cycle}
	}
	return dec, payloads, nil
}

func (t *localShardTransport) Gather(payload []byte) ([][]byte, error) {
	payloads, restart, err := t.group.Gather(t.ctx, t.epoch, payload)
	if err != nil {
		return nil, err
	}
	if restart != nil {
		t.epoch = restart.Epoch
		return nil, &core.ShardRestartError{Epoch: uint64(restart.Epoch), Cycle: restart.Cycle}
	}
	return payloads, nil
}

func (t *localShardTransport) StableCheckpoint() ([]byte, bool, error) {
	_, blob, ok := t.group.StableBlob(t.shard)
	return blob.Data, ok, nil
}
