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
// re-arbitrating boundary links with both sides' true pressure.
//
// Determinism: a flit pushed at cycle c carries VisibleAt c+1 and the
// consumer canonicalizes its arrival stamp to max(stamp, VisibleAt), so
// applying the push at the sync point after cycle c is indistinguishable
// from the concurrent in-process push. Credits flow through committed
// pop counts, which only advance at the consumer's commit — exactly the
// values exchanged here. A boundary link's free space is not exchanged:
// once the flits and pops have landed, the real ingress on the in-span
// side and the producer's replica of the far ingress hold what each side
// committed in one process, so both are recounted here into the cycle's
// parity slot, the slot the arbiter reads.

const shardSection = "shard-boundary"

// boundaryOut is one in-span producer's egress VC toward an out-of-span
// consumer: buf is the local replica of the remote ingress buffer.
type boundaryOut struct {
	src, dst NodeID
	vc       int
	buf      *VCBuffer
	ev       *egressVC
	sent     uint64 // pushes already exchanged
}

// boundaryIn is one in-span consumer's ingress VC fed by an out-of-span
// producer: buf is the real buffer flits get applied into.
type boundaryIn struct {
	src, dst NodeID
	vc       int
	buf      *VCBuffer
}

// boundaryLink is the in-span side of a bidirectional boundary link:
// port.In is the real ingress of that side, port.Out the replica of the
// far side's.
type boundaryLink struct {
	node, neighbor NodeID
	port           *Port
}

type bkey struct {
	src, dst NodeID
	vc       int
}

// ShardBoundary tracks every buffer and link crossing the shard's span.
type ShardBoundary struct {
	lo, hi int
	out    []*boundaryOut
	in     []*boundaryIn
	links  []*boundaryLink

	outByKey  map[bkey]*boundaryOut
	inByKey   map[bkey]*boundaryIn
	linkByKey map[bkey]*boundaryLink
}

// NewShardBoundary scans the in-span routers of the full router set for
// ports whose neighbour lies outside [lo,hi) and indexes them for
// capture and apply. Router IDs must be their slice positions (the
// topology builder guarantees this).
func NewShardBoundary(routers []*Router, lo, hi int) *ShardBoundary {
	sb := &ShardBoundary{
		lo: lo, hi: hi,
		outByKey:  make(map[bkey]*boundaryOut),
		inByKey:   make(map[bkey]*boundaryIn),
		linkByKey: make(map[bkey]*boundaryLink),
	}
	inSpan := func(n NodeID) bool { return int(n) >= lo && int(n) < hi }
	for _, r := range routers[lo:hi] {
		for _, p := range r.Ports() {
			if p.Neighbor == InvalidNode || inSpan(p.Neighbor) {
				continue
			}
			for vc := range p.Out {
				o := &boundaryOut{
					src: r.ID, dst: p.Neighbor, vc: vc,
					buf:  p.Out[vc],
					ev:   &p.outState[vc],
					sent: p.outState[vc].pushes,
				}
				sb.out = append(sb.out, o)
				sb.outByKey[bkey{o.src, o.dst, vc}] = o
			}
			for vc := range p.In {
				i := &boundaryIn{
					src: p.Neighbor, dst: r.ID, vc: vc,
					buf: p.In[vc],
				}
				sb.in = append(sb.in, i)
				sb.inByKey[bkey{i.src, i.dst, vc}] = i
			}
			if p.Link != nil && p.Link.Bidirectional {
				l := &boundaryLink{node: r.ID, neighbor: p.Neighbor, port: p}
				sb.links = append(sb.links, l)
				// Keyed by the *capturing* side's (node, neighbor) so an
				// incoming entry from the remote shard resolves here.
				sb.linkByKey[bkey{l.neighbor, l.node, 0}] = l
			}
		}
	}
	return sb
}

// Capture serializes everything the other shards need from this one
// since the previous capture: newly pushed boundary flits, committed pop
// counts of boundary ingress buffers, and this side's demand on
// bidirectional boundary links. It returns the unencoded container,
// so the caller can add sections of its own before encoding it once.
// Must be called at a quiescent point (all engine workers blocked),
// before Apply. A join capture (opening a run; cycle has not executed)
// sends no link demand: the grants in place, from the last synchronization
// point or a restored snapshot, are one process's, so Apply keeps them.
func (sb *ShardBoundary) Capture(cycle uint64, join bool) (*snapshot.Snapshot, error) {
	snap := snapshot.New(shardSection, cycle)
	w := snap.Section(shardSection)
	w.Int(sb.lo)
	w.Int(sb.hi)

	var flitEntries []*boundaryOut
	for _, o := range sb.out {
		if o.ev.pushes != o.sent {
			flitEntries = append(flitEntries, o)
		}
	}
	w.Int(len(flitEntries))
	for _, o := range flitEntries {
		delta := int(o.ev.pushes - o.sent)
		w.Int32(int32(o.src))
		w.Int32(int32(o.dst))
		w.Int(o.vc)
		w.Int(delta)
		live := o.buf.Len()
		for i := live - delta; i < live; i++ {
			f := o.buf.flitAt(i)
			if err := saveFlit(w, f); err != nil {
				return nil, fmt.Errorf("noc: boundary %d->%d vc %d: %w", o.src, o.dst, o.vc, err)
			}
		}
		o.sent = o.ev.pushes
	}

	w.Int(len(sb.in))
	for _, i := range sb.in {
		w.Int32(int32(i.src))
		w.Int32(int32(i.dst))
		w.Int(i.vc)
		w.Uint64(i.buf.CommittedPops())
	}

	links := sb.links
	if join {
		links = nil
	}
	w.Int(len(links))
	for _, l := range links {
		w.Int32(int32(l.node))
		w.Int32(int32(l.neighbor))
		w.Int(l.port.Side)
		w.Int64(l.port.Link.demand[l.port.Side].Load())
	}
	return snap, nil
}

// Apply folds one other shard's Capture container into local state.
// Entries targeting routers outside this span are ignored (every shard
// receives every container, including — harmlessly — its own). Call
// after Capture.
func (sb *ShardBoundary) Apply(snap *snapshot.Snapshot) error {
	r, err := snap.Open(shardSection)
	if err != nil {
		return fmt.Errorf("noc: boundary blob: %w", err)
	}
	inSpan := func(n NodeID) bool { return int(n) >= sb.lo && int(n) < sb.hi }
	r.Int() // sender lo
	r.Int() // sender hi

	nf := r.Count(1 << 20)
	for i := 0; i < nf && r.Err() == nil; i++ {
		src := NodeID(r.Int32())
		dst := NodeID(r.Int32())
		vc := r.Int()
		n := r.Count(1 << 20)
		for j := 0; j < n && r.Err() == nil; j++ {
			f := loadFlit(r)
			if !inSpan(dst) {
				continue
			}
			in, ok := sb.inByKey[bkey{src, dst, vc}]
			if !ok {
				return fmt.Errorf("noc: boundary flit for unknown channel %d->%d vc %d", src, dst, vc)
			}
			if !in.buf.Push(f) {
				return fmt.Errorf("noc: boundary overflow on channel %d->%d vc %d", src, dst, vc)
			}
		}
	}

	np := r.Count(1 << 20)
	for i := 0; i < np && r.Err() == nil; i++ {
		src := NodeID(r.Int32())
		dst := NodeID(r.Int32())
		vc := r.Int()
		cum := r.Uint64()
		if !inSpan(src) {
			continue
		}
		out, ok := sb.outByKey[bkey{src, dst, vc}]
		if !ok {
			return fmt.Errorf("noc: boundary pops for unknown channel %d->%d vc %d", src, dst, vc)
		}
		pops := out.buf.pops.Load()
		if pops > cum {
			return fmt.Errorf("noc: boundary pops went backwards on channel %d->%d vc %d (%d > %d)",
				src, dst, vc, pops, cum)
		}
		if pops == cum {
			continue // no credit to return: a VC parked on this one sleeps on
		}
		for ; pops < cum; pops++ {
			if out.buf.Len() == 0 {
				return fmt.Errorf("noc: boundary pops overrun on channel %d->%d vc %d", src, dst, vc)
			}
			out.buf.Pop()
		}
		out.buf.Commit()
	}

	nl := r.Count(1 << 20)
	for i := 0; i < nl && r.Err() == nil; i++ {
		node := NodeID(r.Int32())
		neighbor := NodeID(r.Int32())
		side := r.Int()
		demand := r.Int64()
		if !inSpan(neighbor) || side < 0 || side > 1 {
			continue
		}
		bl, ok := sb.linkByKey[bkey{node, neighbor, 0}]
		if !ok {
			return fmt.Errorf("noc: boundary link values for unknown edge %d-%d", node, neighbor)
		}
		// The sender's flits and pops have landed, so both sides' buffers
		// hold what one process committed on this cycle.
		p, l := bl.port, bl.port.Link
		l.demand[side].Store(demand)
		l.ReportSpace(p.Side, snap.Clock, freeSlots(p.In))
		l.ReportSpace(1-p.Side, snap.Clock, freeSlots(p.Out))
		l.Arbitrate(snap.Clock)
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("noc: boundary blob: %w", err)
	}
	return nil
}
