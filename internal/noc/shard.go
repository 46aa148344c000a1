package noc

import (
	"fmt"

	"hornet/internal/snapshot"
)

// Shard-boundary exchange. A sharded run builds the full topology in
// every process — so node numbering, wiring and seeds match the
// unsharded system exactly — but steps only a contiguous router span.
// Cross-boundary edges are therefore already physically wired: an
// in-span producer pushes boundary flits into its local *replica* of the
// remote ingress buffer, and an in-span consumer pops flits whose
// credits the remote producer's replica never observes. ShardBoundary
// closes the loop at synchronization points: it captures the newly
// pushed boundary flits, the committed pop counts of boundary ingress
// buffers and the in-span side's demand on bidirectional boundary links
// into a snapshot container, and applies the containers of every other
// shard — pushing their flits into the real ingress buffers, replaying
// their pops onto the local replicas (restoring producer credit), and
// storing their demand where the in-span side's arbiter reads it.
//
// Determinism: shards meet once per cycle, as the engine's workers do,
// and every value crossing the boundary is one the reader may not use
// before the next cycle anyway. A flit pushed at cycle c carries
// VisibleAt c+1 and the consumer canonicalizes its arrival stamp to
// max(stamp, VisibleAt), so applying the push at the sync point after
// cycle c is indistinguishable from the concurrent in-process push.
// Credits flow through committed pop counts, usable from the cycle after
// the consumer's commit — exactly the values exchanged here. A link's
// demand after c is read at c+1, and its free spaces are counted by the
// in-span side from its own ingress and its credits, which the exchange
// has made what one process would hold.
//
// Every process has the same routers, so a container names a boundary
// port by its router and port index, and Apply resolves the name in its
// own — also where two links join the same pair of routers.

const shardSection = "shard-boundary"

// boundaryPort is an in-span router's port facing out of the span: its
// egress VCs push into replicas of the remote ingress, a remote producer
// feeds its ingress, and a remote side shares its link.
type boundaryPort struct {
	node  NodeID
	index int
	p     *Port
	sent  []uint64 // per egress VC, the pushes already exchanged
}

// ShardBoundary tracks every port crossing the shard's span.
type ShardBoundary struct {
	lo, hi  int
	routers []*Router
	ports   []*boundaryPort
}

// NewShardBoundary scans the in-span routers of the full router set for
// ports whose neighbour lies outside [lo,hi). Router IDs must be their
// slice positions (the topology builder guarantees this).
func NewShardBoundary(routers []*Router, lo, hi int) *ShardBoundary {
	sb := &ShardBoundary{lo: lo, hi: hi, routers: routers}
	for _, r := range routers[lo:hi] {
		for pi, p := range r.Ports() {
			if p.Neighbor == InvalidNode || sb.inSpan(p.Neighbor) {
				continue
			}
			bp := &boundaryPort{node: r.ID, index: pi, p: p, sent: make([]uint64, len(p.outState))}
			for vc := range p.outState {
				bp.sent[vc] = p.outState[vc].pushes
			}
			sb.ports = append(sb.ports, bp)
		}
	}
	return sb
}

func (sb *ShardBoundary) inSpan(n NodeID) bool { return int(n) >= sb.lo && int(n) < sb.hi }

// Capture serializes, per boundary port, everything the other shards need
// from this one since the previous capture: the flits newly pushed on each
// egress VC, the committed pop count of each ingress buffer, and this
// side's demand after cycle on a bidirectional link. It returns the
// unencoded container, so the caller can add sections of its own before
// encoding it once. Must be called at a quiescent point (all engine
// workers blocked), before Apply.
func (sb *ShardBoundary) Capture(cycle uint64) (*snapshot.Snapshot, error) {
	snap := snapshot.New(shardSection, cycle)
	w := snap.Section(shardSection)
	w.Int(len(sb.ports))
	for _, b := range sb.ports {
		w.Int32(int32(b.node))
		w.Int(b.index)
		for vc := range b.p.outState {
			pushes, buf := b.p.outState[vc].pushes, b.p.Out[vc]
			delta := int(pushes - b.sent[vc])
			w.Int(delta)
			for i := buf.Len() - delta; i < buf.Len(); i++ {
				if err := saveFlit(w, buf.flitAt(i), buf.payloadAt(i)); err != nil {
					return nil, fmt.Errorf("noc: boundary router %d port %d vc %d: %w", b.node, b.index, vc, err)
				}
			}
			b.sent[vc] = pushes
		}
		for _, buf := range b.p.In {
			w.Uint64(buf.CommittedPops())
		}
		if l := b.p.Link; l != nil && l.Bidirectional {
			w.Int64(l.demand[b.p.Side][cycle&1].Load())
		}
	}
	return snap, nil
}

// Apply folds one other shard's Capture container into local state: the
// flits of a port facing into this span go into their (real) ingress
// buffers, its pop counts are replayed onto the local replicas of its
// ingress, returning the credits to the producers here, and its demand
// goes where this side's arbiter reads it. Ports facing other spans are
// read and ignored (every shard receives every container, including —
// harmlessly — its own). Call after Capture.
func (sb *ShardBoundary) Apply(snap *snapshot.Snapshot) error {
	r, err := snap.Open(shardSection)
	if err != nil {
		return fmt.Errorf("noc: boundary blob: %w", err)
	}
	np := r.Count(1 << 20)
	for i := 0; i < np && r.Err() == nil; i++ {
		node, index := NodeID(r.Int32()), r.Int()
		if r.Err() != nil {
			break
		}
		var p *Port
		if node >= 0 && int(node) < len(sb.routers) && index >= 1 && index < len(sb.routers[node].Ports()) {
			p = sb.routers[node].Ports()[index]
		}
		if p == nil || p.Neighbor == InvalidNode {
			return fmt.Errorf("noc: boundary blob names router %d port %d", node, index)
		}
		mine := !sb.inSpan(node) && sb.inSpan(p.Neighbor)
		for vc, buf := range p.Out {
			n := r.Count(buf.Capacity())
			for j := 0; j < n && r.Err() == nil; j++ {
				f, payload, err := loadFlit(r)
				if err != nil {
					return fmt.Errorf("noc: boundary blob, channel %d->%d vc %d: %w", node, p.Neighbor, vc, err)
				}
				if mine && !buf.Push(f, payload) {
					return fmt.Errorf("noc: boundary overflow on channel %d->%d vc %d", node, p.Neighbor, vc)
				}
			}
		}
		for vc, buf := range p.In {
			cum := r.Uint64()
			if !mine || r.Err() != nil {
				continue
			}
			pops := buf.pops.Load()
			if pops > cum {
				return fmt.Errorf("noc: boundary pops went backwards on channel %d->%d vc %d (%d > %d)",
					p.Neighbor, node, vc, pops, cum)
			}
			if pops == cum {
				continue // no credit to return: a VC parked on this one sleeps on
			}
			for ; pops < cum; pops++ {
				if buf.Len() == 0 {
					return fmt.Errorf("noc: boundary pops overrun on channel %d->%d vc %d", p.Neighbor, node, vc)
				}
				buf.Pop()
			}
			buf.Commit()
		}
		if l := p.Link; l != nil && l.Bidirectional {
			if demand := r.Int64(); mine {
				l.demand[p.Side][snap.Clock&1].Store(demand)
			}
		}
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("noc: boundary blob: %w", err)
	}
	return nil
}
