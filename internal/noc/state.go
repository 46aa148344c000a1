package noc

import (
	"fmt"
	"maps"
	"slices"

	"hornet/internal/snapshot"
)

// This file implements checkpoint save/restore for the NoC layer. The
// encoding walks structures in construction order (ports as added, VCs
// in index order, maps by sorted key), so a given simulator state always
// serializes to the same bytes. Restore is the exact inverse and
// validates every structural count against the freshly built router it
// is loading into, returning *snapshot.MismatchError when the snapshot
// belongs to a different configuration and *snapshot.CorruptError when
// the bytes are internally inconsistent.

// saveFlit encodes one flit and its payload. The endpoints are written
// from the flit's flow (see Flit). Synthetic and trace traffic carry no
// payload; protocol and MPI-style traffic carry typed values serialized
// through the snapshot package's payload codec registry. A payload of an
// unregistered type is unsupported state and fails the snapshot with a
// structured error.
func saveFlit(w *snapshot.Writer, f *Flit, payload any) error {
	w.Uint8(uint8(f.Kind))
	w.Uint32(uint32(f.Flow))
	w.Uint64(f.Packet)
	w.Uint16(f.Seq)
	w.Uint16(f.Len)
	w.Uint64(f.FlowSeq)
	w.Int32(int32(f.Flow.Src()))
	w.Int32(int32(f.Flow.Dst()))
	w.Uint64(f.InjectedAt)
	w.Uint64(f.HeadInjectedAt)
	w.Uint64(f.VisibleAt)
	w.Uint64(f.Latency)
	w.Uint16(f.Hops)
	if err := snapshot.EncodePayload(w, payload); err != nil {
		return fmt.Errorf("flit (flow %v): %w", f.Flow, err)
	}
	return nil
}

// loadFlit decodes what saveFlit wrote. A flit whose endpoints are not its
// flow's, or that carries a payload but is no head flit (only startPacket
// attaches one), is corrupt: no flit can hold either.
func loadFlit(r *snapshot.Reader) (Flit, any, error) {
	f := Flit{
		Kind:    Kind(r.Uint8()),
		Flow:    FlowID(r.Uint32()),
		Packet:  r.Uint64(),
		Seq:     r.Uint16(),
		Len:     r.Uint16(),
		FlowSeq: r.Uint64(),
	}
	src, dst := NodeID(r.Int32()), NodeID(r.Int32())
	f.InjectedAt = r.Uint64()
	f.HeadInjectedAt = r.Uint64()
	f.VisibleAt = r.Uint64()
	f.Latency = r.Uint64()
	f.Hops = r.Uint16()
	payload := snapshot.DecodePayload(r)
	if err := r.Err(); err != nil {
		return f, nil, err
	}
	if src != f.Flow.Src() || dst != f.Flow.Dst() {
		return f, nil, &snapshot.CorruptError{Detail: fmt.Sprintf(
			"flit of packet %d on flow %v names endpoints %d->%d", f.Packet, f.Flow, src, dst)}
	}
	if payload != nil && !f.Kind.IsHead() {
		return f, nil, &snapshot.CorruptError{Detail: fmt.Sprintf(
			"%v flit of packet %d carries a payload", f.Kind, f.Packet)}
	}
	return f, payload, nil
}

// EncodePacket appends one bridge-level packet, payload included, using
// the snapshot payload codec registry. Exported because frontends that
// queue packets outside the network (the MIPS DMA engine) serialize
// them with the same wire encoding the routers use.
func EncodePacket(w *snapshot.Writer, p Packet) error {
	w.Uint64(p.ID)
	w.Uint32(uint32(p.Flow))
	w.Int32(int32(p.Src))
	w.Int32(int32(p.Dst))
	w.Int(p.Flits)
	w.Uint64(p.FlowSeq)
	w.Uint64(p.Latency)
	if err := snapshot.EncodePayload(w, p.Payload); err != nil {
		return fmt.Errorf("packet (flow %v): %w", p.Flow, err)
	}
	return nil
}

// DecodePacket reads one packet written by EncodePacket. Decoding
// failures latch on the reader.
func DecodePacket(r *snapshot.Reader) Packet {
	p := Packet{
		ID:      r.Uint64(),
		Flow:    FlowID(r.Uint32()),
		Src:     NodeID(r.Int32()),
		Dst:     NodeID(r.Int32()),
		Flits:   r.Int(),
		FlowSeq: r.Uint64(),
		Latency: r.Uint64(),
	}
	p.Payload = snapshot.DecodePayload(r)
	return p
}

// SaveState serializes the buffer: capacity (structural check), the
// cumulative pop count, and the resident flits in FIFO order.
func (b *VCBuffer) SaveState(w *snapshot.Writer) error {
	w.Int(b.Capacity())
	w.Uint64(b.pops.Load())
	live := b.Len()
	w.Int(live)
	for i := 0; i < live; i++ {
		if err := saveFlit(w, b.flitAt(i), b.payloadAt(i)); err != nil {
			return err
		}
	}
	return nil
}

// LoadState restores a buffer saved by SaveState into this (fresh,
// empty) buffer. Ring positions are normalized to head 0; only the
// FIFO content and the credit counters are semantic. The occupancy bit is
// derived from the restored content.
func (b *VCBuffer) LoadState(r *snapshot.Reader) error {
	capacity := r.Int()
	pops := r.Uint64()
	live := r.Count(1 << 20)
	if err := r.Err(); err != nil {
		return err
	}
	if capacity != b.Capacity() {
		return &snapshot.MismatchError{Field: "vc buffer capacity",
			Got: fmt.Sprint(capacity), Want: fmt.Sprint(b.Capacity())}
	}
	if live > capacity {
		return &snapshot.CorruptError{
			Detail: fmt.Sprintf("buffer holds %d flits but capacity is %d", live, capacity)}
	}
	if ring := b.cell().payloads.Load(); ring != nil {
		clear(*ring)
	}
	slots := b.slots()
	for i := 0; i < live; i++ {
		f, payload, err := loadFlit(r)
		if err != nil {
			return err
		}
		slots[i] = f
		if payload != nil {
			b.setPayload(uint32(i), payload)
		}
	}
	b.head = 0
	b.tail = b.pos(uint32(live))
	b.pushes.Store(pops + uint64(live))
	b.pops.Store(pops)
	b.Commit()
	b.deriveOccupancy()
	return nil
}

// SaveState serializes the link's arbitration state: the demands after
// clock-1, the free space of each side's ingress and the grants that govern
// clock — which the sides compute at clock's positive edge, and so are
// computed here as they will be.
func (l *Link) SaveState(w *snapshot.Writer, clock uint64) {
	w.Int(l.BandwidthPerDir)
	w.Bool(l.Bidirectional)
	var space [2]int64
	grant := l.grant
	if l.Bidirectional {
		space = [2]int64{int64(freeSlots(l.in[0], clock)), int64(freeSlots(l.in[1], clock))}
		if g, ok := l.split(clock-1, space[0]); ok {
			grant = g
		}
	}
	for side := 0; side < 2; side++ {
		w.Int64(l.demand[side][(clock-1)&1].Load())
		w.Int64(space[side])
		w.Int64(grant[side])
	}
}

// LoadState restores link state saved by SaveState: the demands into both
// parity slots and the grants, marked as the next cycle's. The spaces are
// the restored buffers'.
func (l *Link) LoadState(r *snapshot.Reader) error {
	bw := r.Int()
	bidi := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if bw != l.BandwidthPerDir || bidi != l.Bidirectional {
		return &snapshot.MismatchError{Field: "link parameters",
			Got:  fmt.Sprintf("bw=%d bidi=%v", bw, bidi),
			Want: fmt.Sprintf("bw=%d bidi=%v", l.BandwidthPerDir, l.Bidirectional)}
	}
	for side := 0; side < 2; side++ {
		demand := r.Int64()
		l.demand[side][0].Store(demand)
		l.demand[side][1].Store(demand)
		r.Int64() // space
		l.grant[side] = r.Int64()
	}
	l.space1[0].Store(-1)
	l.space1[1].Store(-1)
	return r.Err()
}

func saveEgressVC(w *snapshot.Writer, e *egressVC) {
	w.Uint64(e.pushes)
	w.Uint64(e.allocPacket)
	w.Uint32(uint32(e.allocFlow))
	w.Uint32(uint32(e.lastFlow))
}

// loadEgressVC restores the serialized fields only: the credit count is
// the downstream buffer's to restore (VCBuffer.LoadState commits into it,
// whichever of the two routers loads first), and the waiter beside it is
// derived — nothing is parked after a restore, and the first pass parks
// what is blocked.
func loadEgressVC(r *snapshot.Reader, e *egressVC) {
	e.pushes = r.Uint64()
	e.allocPacket = r.Uint64()
	e.allocFlow = FlowID(r.Uint32())
	e.lastFlow = FlowID(r.Uint32())
}

// saveVCState serializes one ingress VC's pipeline state. The arrival
// stamps need canonicalization: whether a flit pushed by a neighbouring
// tile is stamped in the same cycle or the next depends on worker
// scheduling — a benign race, because latency accounting always takes
// max(stamp, VisibleAt). Saving that effective value (and stamping
// not-yet-scanned residents at the restore clock, exactly when the
// next PhaseTransfer would stamp them) makes snapshots of the same
// simulated state byte-identical regardless of how workers interleaved,
// and restores the exact latency semantics.
func (r *Router) saveVCState(w *snapshot.Writer, s *vcState, clock uint64) {
	w.Bool(s.routed)
	w.Uint64(s.routedAt)
	w.Uint32(uint32(s.flow))
	w.Int32(int32(s.next))
	w.Uint32(uint32(s.nextFlow))
	w.Int(int(s.egress))
	w.Bool(s.vaDone)
	w.Uint64(s.vaAt)
	w.Int(s.outVC())
	w.Uint64(s.pktID)
	live := s.buf.Len()
	w.Int(live)
	for i := 0; i < live; i++ {
		eff := clock
		if uint32(i) < s.sCount {
			eff = r.stamps[s.slot0+s.buf.pos(uint32(i))]
		}
		if f := s.buf.flitAt(i); f.VisibleAt > eff {
			eff = f.VisibleAt
		}
		w.Uint64(eff)
	}
}

// loadVCState restores what saveVCState wrote, after the VC's buffer (so
// the ring is normalized to head 0 and the stamps go to positions 0..n-1),
// and rebuilds what the record derives: the pointer to the allocated
// downstream VC from the egress port and VC index, and a head descriptor
// that says "read the flit again".
func (r *Router) loadVCState(rd *snapshot.Reader, s *vcState) error {
	s.routed = rd.Bool()
	s.routedAt = rd.Uint64()
	s.flow = FlowID(rd.Uint32())
	s.next = NodeID(rd.Int32())
	s.nextFlow = FlowID(rd.Uint32())
	egress := rd.Int()
	s.vaDone = rd.Bool()
	s.vaAt = rd.Uint64()
	outVC := rd.Int()
	s.pktID = rd.Uint64()
	n := rd.Count(s.buf.Capacity())
	for i := 0; i < n; i++ {
		r.stamps[int(s.slot0)+i] = rd.Uint64()
	}
	s.sCount = uint32(n)
	if err := rd.Err(); err != nil {
		return err
	}
	if egress < 0 || egress >= len(r.ports) {
		return &snapshot.CorruptError{Detail: fmt.Sprintf(
			"router %d: VC state names egress port %d of %d", r.ID, egress, len(r.ports))}
	}
	s.egress = uint8(egress)
	s.headVis = headStale
	s.ev = nil
	if out := r.ports[egress].outState; s.vaDone && out != nil {
		if outVC < 0 || outVC >= len(out) {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"router %d: VC state names VC %d of %d on egress port %d", r.ID, outVC, len(out), egress)}
		}
		s.ev = &out[outVC]
	} else if outVC != 0 {
		return &snapshot.CorruptError{Detail: fmt.Sprintf(
			"router %d: VC state names VC %d without an allocation", r.ID, outVC)}
	}
	return nil
}

// SaveState serializes the router's complete mutable state: injection
// queue and streaming packet, per-flow sequence counters, ingress VC
// buffers with their pipeline state, producer-side egress bookkeeping,
// and the ejection-port reassembly table. clock is the next cycle the
// suspended simulation would execute (used to canonicalize arrival
// stamps; see saveVCState).
//
// The encoding is the one a router wrote when it numbered a flow's packets
// as they were offered: each queued packet with its flow sequence number,
// and per flow the packets offered. Both are derived here from the numbers
// the router hands out as packets start, counting the flow's packets queued
// before and after.
func (r *Router) SaveState(w *snapshot.Writer, clock uint64) error {
	w.Uint64(r.pktCounter)

	// Injection queue, each packet whole, and the packet currently
	// streaming in.
	queue, payloads := r.pending.live(), r.payloads.live()
	offered := make(map[FlowID]uint64) // per flow with packets queued, the packets offered so far
	w.Int(len(queue))
	for i, pp := range queue {
		p := r.queuedPacket(pp, len(queue)-1-i)
		seq, ok := offered[pp.flow]
		if !ok {
			seq = r.flows[pp.flow].started
		}
		p.FlowSeq = seq + 1
		offered[pp.flow] = p.FlowSeq
		if pp.flags&pendPayload != 0 {
			p.Payload, payloads = payloads[0], payloads[1:]
		}
		if err := EncodePacket(w, p); err != nil {
			return err
		}
	}
	w.Bool(r.streaming)
	if r.streaming {
		w.Int(int(r.cur.Len))
		payload := r.curPayload
		for i := 0; i < int(r.cur.Len); i++ {
			f := r.streamFlit(i)
			if err := saveFlit(w, &f, payload); err != nil {
				return err
			}
			payload = nil
		}
		w.Int(len(r.curInj))
		w.Int(r.curVC)
	}

	// Per-flow packet sequence counters, sorted for determinism.
	flows := make([]FlowID, 0, len(r.flows)+len(offered))
	for f := range r.flows {
		flows = append(flows, f)
	}
	for f := range offered {
		if _, ok := r.flows[f]; !ok {
			flows = append(flows, f)
		}
	}
	slices.Sort(flows)
	w.Int(len(flows))
	for _, f := range flows {
		seq, ok := offered[f]
		if !ok {
			seq = r.flows[f].started
		}
		w.Uint32(uint32(f))
		w.Uint64(seq)
	}

	// Producer bookkeeping for the local injection VCs.
	w.Int(len(r.sourceState))
	for i := range r.sourceState {
		saveEgressVC(w, &r.sourceState[i])
	}

	// Ports: ingress buffers + pipeline state, and egress bookkeeping
	// where the port has a downstream side.
	w.Int(len(r.ports))
	for _, p := range r.ports {
		w.Int(len(p.In))
		for vi, buf := range p.In {
			if err := buf.SaveState(w); err != nil {
				return err
			}
			r.saveVCState(w, &p.inState[vi], clock)
		}
		w.Int(len(p.outState))
		for i := range p.outState {
			saveEgressVC(w, &p.outState[i])
		}
	}

	// Ejection-port reassembly table, by packet ID.
	w.Int(len(r.assembly))
	for i := range r.assembly {
		a := &r.assembly[i]
		w.Uint64(a.head.Packet)
		if err := saveFlit(w, &a.head, a.payload); err != nil {
			return err
		}
	}
	return nil
}

// checkQueued rejects the i-th restored queued packet, with behind packets
// queued after it, unless its record rebuilds it exactly: a length a flit
// can count, this router as its source and its flow's, its flow's
// destination, no latency yet, and the ID OfferPacket handed it.
func (r *Router) checkQueued(p Packet, i, behind int) error {
	var field string
	switch want := r.queuedID(behind); {
	case p.Flits < 1 || p.Flits > MaxPacketFlits:
		field = fmt.Sprintf("flits %d outside [1, %d]", p.Flits, MaxPacketFlits)
	case p.Src != r.ID:
		field = fmt.Sprintf("src %d", p.Src)
	case p.Flow.Src() != r.ID:
		field = fmt.Sprintf("flow %v from another source", p.Flow)
	case p.Dst != p.Flow.Dst():
		field = fmt.Sprintf("dst %d on flow %v", p.Dst, p.Flow)
	case p.Latency != 0:
		field = fmt.Sprintf("latency %d", p.Latency)
	case p.ID != want:
		field = fmt.Sprintf("id %#x, want %#x (consecutive, ending at packet counter %d)", p.ID, want, r.pktCounter)
	default:
		return nil
	}
	return &snapshot.CorruptError{Detail: fmt.Sprintf("router %d: queued packet %d: %s", r.ID, i, field)}
}

// queuedRun is a flow's queued packets, as LoadState reads them: the first
// one's flow sequence number and how many there are.
type queuedRun struct{ first, n uint64 }

// LoadState restores router state saved by SaveState at clock into this
// router, which must be built from the same configuration (same port and
// VC geometry). The restored credits are usable at clock. Numbers a router
// could not have written are corrupt: a flow's queued packets must be
// numbered consecutively up to the flow's count, the streaming flits must
// be one packet's, and the reassembly table must be ordered by packet.
func (r *Router) LoadState(rd *snapshot.Reader, clock uint64) error {
	r.last = clock - 1
	r.popped = r.popped[:0]
	r.pktCounter = rd.Uint64()

	n := rd.Count(1 << 24)
	r.pending.reset()
	r.payloads.reset()
	queued := make(map[FlowID]queuedRun)
	for i := 0; i < n; i++ {
		p := DecodePacket(rd)
		if err := rd.Err(); err != nil {
			return err
		}
		if err := r.checkQueued(p, i, n-1-i); err != nil {
			return err
		}
		q, ok := queued[p.Flow]
		if !ok {
			q.first = p.FlowSeq
		} else if p.FlowSeq != q.first+q.n {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"router %d: queued packet %d of flow %v has flow sequence number %d, want %d", r.ID, i, p.Flow, p.FlowSeq, q.first+q.n)}
		}
		q.n++
		queued[p.Flow] = q
		r.enqueue(p)
	}
	r.curInj, r.curPayload = r.curInj[:0], nil
	r.streaming = rd.Bool()
	if r.streaming {
		if err := r.loadStreaming(rd); err != nil {
			return err
		}
	}

	n = rd.Count(1 << 28)
	// Cap the preallocation hint: the count is bounded by the section's
	// actual bytes, but a huge (legitimate or hostile) value must not
	// translate into one giant up-front allocation.
	r.flows = make(map[FlowID]sourceFlow, min(n, 1<<20))
	var prev FlowID
	for i := 0; i < n; i++ {
		f := FlowID(rd.Uint32())
		offered := rd.Uint64()
		if err := rd.Err(); err != nil {
			return err
		}
		if i > 0 && f <= prev {
			return &snapshot.CorruptError{Detail: fmt.Sprintf("router %d: flow counter of %v after that of %v", r.ID, f, prev)}
		}
		prev = f
		started := offered
		if q, ok := queued[f]; ok {
			if q.first < 1 || q.first+q.n-1 != offered {
				return &snapshot.CorruptError{Detail: fmt.Sprintf(
					"router %d: flow %v queues packets %d to %d but counts %d offered", r.ID, f, q.first, q.first+q.n-1, offered)}
			}
			started = q.first - 1
			delete(queued, f)
		}
		r.flows[f] = sourceFlow{started: started}
	}
	if len(queued) > 0 {
		return &snapshot.CorruptError{Detail: fmt.Sprintf(
			"router %d: flow %v queues packets but has no counter", r.ID, slices.Min(slices.Collect(maps.Keys(queued))))}
	}

	n = rd.Int()
	if err := rd.Err(); err != nil {
		return err
	}
	if n != len(r.sourceState) {
		return &snapshot.MismatchError{Field: "injection VCs",
			Got: fmt.Sprint(n), Want: fmt.Sprint(len(r.sourceState))}
	}
	for i := range r.sourceState {
		loadEgressVC(rd, &r.sourceState[i])
	}

	n = rd.Int()
	if err := rd.Err(); err != nil {
		return err
	}
	if n != len(r.ports) {
		return &snapshot.MismatchError{Field: "router ports",
			Got: fmt.Sprint(n), Want: fmt.Sprint(len(r.ports))}
	}
	for _, p := range r.ports {
		vcs := rd.Int()
		if err := rd.Err(); err != nil {
			return err
		}
		if vcs != len(p.In) {
			return &snapshot.MismatchError{Field: "port VCs",
				Got: fmt.Sprint(vcs), Want: fmt.Sprint(len(p.In))}
		}
		for vi, buf := range p.In {
			if err := buf.LoadState(rd); err != nil {
				return err
			}
			if err := r.loadVCState(rd, &p.inState[vi]); err != nil {
				return err
			}
		}
		outs := rd.Int()
		if err := rd.Err(); err != nil {
			return err
		}
		if outs != len(p.outState) {
			return &snapshot.MismatchError{Field: "egress VCs",
				Got: fmt.Sprint(outs), Want: fmt.Sprint(len(p.outState))}
		}
		p.freeVCs = 0
		for i := range p.outState {
			loadEgressVC(rd, &p.outState[i])
			if p.outState[i].allocPacket == 0 {
				p.freeVCs++
			}
		}
	}

	n = rd.Count(len(r.vcs))
	clear(r.assembly)
	r.assembly = r.assembly[:0]
	for i := 0; i < n; i++ {
		id := rd.Uint64()
		head, payload, err := loadFlit(rd)
		if err != nil {
			return err
		}
		if id != head.Packet || (i > 0 && id <= r.assembly[i-1].head.Packet) {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"router %d: reassembly entry %d names packet %d and holds the head of packet %d, out of order", r.ID, i, id, head.Packet)}
		}
		r.assembly = append(r.assembly, assembling{head: head, payload: payload})
	}
	return rd.Err()
}

// loadStreaming restores the streaming packet: its flits, how many have
// been pushed, and the injection VC. The flits must be the ones the
// router would build for that packet at that point (streamFlit): one
// packet's, from this source, numbered in order, stamped with their
// injection cycles once pushed and unstamped before.
func (r *Router) loadStreaming(rd *snapshot.Reader) error {
	flits := make([]Flit, rd.Count(MaxPacketFlits))
	for i := range flits {
		f, payload, err := loadFlit(rd)
		if err != nil {
			return err
		}
		if payload != nil && i > 0 {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"router %d: streaming flit %d carries a payload", r.ID, i)}
		}
		flits[i] = f
		if i == 0 {
			r.curPayload = payload
		}
	}
	next := rd.Int()
	r.curVC = rd.Int()
	if err := rd.Err(); err != nil {
		return err
	}
	if len(flits) == 0 || next < 0 || next >= len(flits) ||
		r.curVC < 0 || r.curVC >= len(r.sourceState) {
		return &snapshot.CorruptError{Detail: fmt.Sprintf(
			"router %d: streaming position %d/%d vc %d out of range", r.ID, next, len(flits), r.curVC)}
	}
	h := &flits[0]
	if h.Flow.Src() != r.ID {
		return &snapshot.CorruptError{Detail: fmt.Sprintf(
			"router %d: streaming packet %d on flow %v from another source", r.ID, h.Packet, h.Flow)}
	}
	r.cur = Flit{Kind: headKind(len(flits)), Flow: h.Flow, Packet: h.Packet, Len: uint16(len(flits)), FlowSeq: h.FlowSeq}
	for _, f := range flits[:next] {
		r.curInj = append(r.curInj, f.InjectedAt)
	}
	for i := range flits {
		if flits[i] != r.streamFlit(i) {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"router %d: streaming flit %d (%v) is not flit %d of packet %d with %d pushed", r.ID, i, flits[i], i, h.Packet, next)}
		}
	}
	return nil
}

// ResidentFlits counts flits held anywhere in this router's ingress
// buffers (used by restore to rebuild the global in-flight counter).
func (r *Router) ResidentFlits() int64 {
	var n int64
	for _, p := range r.ports {
		for _, buf := range p.In {
			n += int64(buf.Len())
		}
	}
	return n
}
