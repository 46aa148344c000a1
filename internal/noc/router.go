package noc

import (
	"fmt"
	"sync/atomic"

	"hornet/internal/sim"
	"hornet/internal/stats"
)

// Receiver consumes packets delivered to a node's local (CPU) port after
// flit reassembly. Implementations run on the owning tile's thread.
type Receiver interface {
	ReceivePacket(p Packet, cycle uint64)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(p Packet, cycle uint64)

// ReceivePacket calls f(p, cycle).
func (f ReceiverFunc) ReceivePacket(p Packet, cycle uint64) { f(p, cycle) }

// egressVC is the producer-side bookkeeping for one downstream VC: the
// wormhole allocation state and the cumulative push count whose difference
// from the buffer's committed pops yields the deterministic credit view.
type egressVC struct {
	pushes      uint64
	allocPacket uint64 // packet currently allocated this VC; 0 = free
	allocFlow   FlowID
	lastFlow    FlowID // flow of the most recent flit pushed
}

// resident reports whether, from the producer's view, the downstream VC
// still holds flits, and of which flow (valid only under single-flow-
// at-a-time disciplines such as EDVCA, which is when it is consulted).
func (e *egressVC) resident(buf *VCBuffer) (FlowID, bool) {
	if e.pushes == buf.CommittedPops() {
		return 0, false
	}
	return e.lastFlow, true
}

func (e *egressVC) free(buf *VCBuffer) int {
	return buf.Capacity() - int(e.pushes-buf.CommittedPops())
}

// vcState is the per-ingress-VC pipeline state for the packet currently
// at the head of that VC, plus the local-clock arrival stamps that keep
// latency accounting within one clock domain per hop (paper §II-C: stats
// ride with the flits and are updated incrementally, so loose
// synchronization cannot compound cross-tile clock skew into latency).
type vcState struct {
	routed   bool
	routedAt uint64
	flow     FlowID // flow ID the packet arrived with (VCA lookup key)
	next     NodeID
	nextFlow FlowID
	egress   int
	vaDone   bool
	vaAt     uint64
	outVC    int
	pktID    uint64

	// Fixed at construction: the buffer this state describes, the index
	// of its ingress port and of the VC within it, and the node its flits
	// arrive from (the router itself on the local port) — the routing and
	// VCA tables' prev key.
	buf      *VCBuffer
	port, vc int
	prev     NodeID

	// stamps is a ring of local-clock arrival times, one per resident
	// flit the owning tile's scan has seen.
	stamps []uint64
	sHead  int
	sCount int
}

func (s *vcState) reset() {
	s.routed, s.vaDone = false, false
	s.routedAt, s.vaAt = 0, 0
	s.flow, s.nextFlow = 0, 0
	s.next, s.egress, s.outVC = 0, 0, 0
	s.pktID = 0
}

// stampArrivals records the local cycle for flits that appeared in the
// buffer since the last scan.
func (s *vcState) stampArrivals(cycle uint64, live int) {
	for s.sCount < live {
		s.stamps[(s.sHead+s.sCount)%len(s.stamps)] = cycle
		s.sCount++
	}
}

// popStamp consumes the oldest arrival stamp. Only VCs on the occupied
// list are popped, each was stamped for at least one flit by this cycle's
// scan and loses at most one flit per cycle, so a flit a neighbour pushes
// after the scan (loose synchronization) waits for the next scan and the
// ring cannot run empty here. The sCount == 0 branch is a defensive guard
// for that invariant: it keeps the count from going negative and answers
// with the current local cycle, the value saveVCState records for
// unscanned residents.
func (s *vcState) popStamp(cycle uint64) uint64 {
	if s.sCount == 0 {
		return cycle
	}
	v := s.stamps[s.sHead]
	s.sHead = (s.sHead + 1) % len(s.stamps)
	s.sCount--
	return v
}

// Port couples one ingress port (VC buffers owned by this router) with
// the egress channel toward the same neighbour (pointers to the
// neighbour's ingress buffers plus producer bookkeeping).
type Port struct {
	Neighbor NodeID // InvalidNode for the local CPU port

	In      []*VCBuffer // this router's ingress VCs for flits from Neighbor
	inState []vcState

	Out      []*VCBuffer // neighbour's ingress VCs for flits to Neighbor (nil on local port)
	outState []egressVC

	Link *Link
	Side int // this router's side index on Link
}

// InOccupancy sums the instantaneous flit occupancy and total capacity
// of the port's ingress VC buffers. Occupancy reads are atomic (see
// VCBuffer.Len) but only coherent when the simulation is quiescent —
// telemetry samples them from the engine's barrier leader.
func (p *Port) InOccupancy() (used, capacity int) {
	for _, b := range p.In {
		used += b.Len()
		capacity += b.Capacity()
	}
	return used, capacity
}

// pendingPacket wraps a queued injection packet.
type pendingPacket struct {
	pkt Packet
}

// assembling tracks a packet mid-reassembly at the ejection port.
type assembling struct {
	head Flit
}

// Router is a cycle-level model of one ingress-queued wormhole VC router.
// All methods are called from the owning tile's worker thread only; the
// ingress VC buffers are the only cross-thread touch points.
type Router struct {
	ID        NodeID
	ports     []*Port
	localPort int
	byNode    map[NodeID]int

	table    RouteTable
	vcaTable VCATable
	vcaMode  VCAMode
	adaptive bool

	rng      *sim.RNG
	st       *stats.Tile
	inflight *atomic.Int64
	recv     Receiver

	// bidir is set when any port's link is bandwidth-adaptive: only then
	// do demand and free space have a reader.
	bidir bool

	// ingress lists every ingress VC, port-major and VC-minor. occupied is
	// the subset that held flits at this cycle's scan, in the same order
	// (rng.Perm indexes into lists filtered from it, so the order is part
	// of the determinism contract). popped collects the buffers popped
	// this cycle, whose credits the negative edge publishes.
	ingress  []*vcState
	occupied []*vcState
	popped   []*VCBuffer

	// Injection state. pending[pendHead:] is the queue; the consumed
	// prefix is reclaimed when the queue empties or before it grows.
	pending     []pendingPacket
	pendHead    int
	streaming   bool   // a packet is streaming in from curFlits
	curFlits    []Flit // its flits (storage reused across packets)
	curNext     int
	curVC       int
	pktCounter  uint64
	flowSeq     map[FlowID]uint64
	sourceState []egressVC // producer bookkeeping for the local ingress VCs

	// Reassembly state at the ejection port.
	assembly map[uint64]assembling

	// Scratch buffers reused across cycles to avoid allocation.
	egressPerm  []int
	saBuckets   [][]*vcState // SA-eligible VCs per egress port
	candScratch []*vcState
	candPerm    []int
	vaScratch   []*vcState
	vcOK        []int
	weights     []float64
	demand      []int // SA-ready flits per egress port
}

// rerouteAfter is the VA-starvation threshold (cycles) after which a
// routed-but-unallocated packet re-runs route computation.
const rerouteAfter = 15

// RouterParams bundles construction inputs.
type RouterParams struct {
	ID       NodeID
	Table    RouteTable
	VCATable VCATable
	VCAMode  VCAMode
	Adaptive bool
	RNG      *sim.RNG
	Stats    *stats.Tile
	InFlight *atomic.Int64
	// LocalVCs / LocalBufFlits configure the CPU<->switch ingress port.
	LocalVCs      int
	LocalBufFlits int
}

// NewRouter creates a router with only its local port; the topology
// builder adds network ports with Connect.
func NewRouter(p RouterParams) *Router {
	if p.LocalVCs < 1 || p.LocalBufFlits < 1 {
		panic("noc: local port needs at least one VC and one buffer slot")
	}
	r := &Router{
		ID:       p.ID,
		byNode:   make(map[NodeID]int),
		table:    p.Table,
		vcaTable: p.VCATable,
		vcaMode:  p.VCAMode,
		adaptive: p.Adaptive,
		rng:      p.RNG,
		st:       p.Stats,
		inflight: p.InFlight,
		flowSeq:  make(map[FlowID]uint64),
		assembly: make(map[uint64]assembling),
	}
	if t, ok := p.Table.(Adaptiver); ok && t.Adaptive() {
		r.adaptive = true
	}
	r.sourceState = make([]egressVC, p.LocalVCs)
	r.localPort = r.addPort(InvalidNode, p.LocalVCs, p.LocalBufFlits)
	return r
}

// AddPort creates the ingress side of a port facing neighbor and returns
// its index. The egress side is wired afterwards with ConnectEgress.
func (r *Router) AddPort(neighbor NodeID, vcs, bufFlits int) int {
	idx := r.addPort(neighbor, vcs, bufFlits)
	r.byNode[neighbor] = idx
	return idx
}

func (r *Router) addPort(neighbor NodeID, vcs, bufFlits int) int {
	idx := len(r.ports)
	prev := neighbor
	if prev == InvalidNode {
		prev = r.ID
	}
	p := &Port{Neighbor: neighbor, inState: make([]vcState, vcs)}
	for i := range p.inState {
		buf := NewVCBuffer(bufFlits)
		p.In = append(p.In, buf)
		st := &p.inState[i]
		st.buf, st.port, st.vc, st.prev = buf, idx, i, prev
		st.stamps = make([]uint64, bufFlits)
		r.ingress = append(r.ingress, st)
	}
	r.ports = append(r.ports, p)
	r.egressPerm = make([]int, len(r.ports))
	r.saBuckets = append(r.saBuckets, nil)
	r.demand = append(r.demand, 0)
	return idx
}

// ConnectEgress wires this router's port toward neighbor to the
// neighbour's ingress buffers and the shared link.
func (r *Router) ConnectEgress(neighbor NodeID, downstream []*VCBuffer, link *Link, side int) {
	idx, ok := r.byNode[neighbor]
	if !ok {
		panic(fmt.Sprintf("noc: router %d has no port facing %d", r.ID, neighbor))
	}
	p := r.ports[idx]
	p.Out = downstream
	p.outState = make([]egressVC, len(downstream))
	p.Link = link
	p.Side = side
	if link != nil && link.Bidirectional {
		r.bidir = true
	}
}

// SetReceiver installs the local packet consumer.
func (r *Router) SetReceiver(rc Receiver) { r.recv = rc }

// Ports returns the router's ports (tests and topology wiring).
func (r *Router) Ports() []*Port { return r.ports }

// LocalPort returns the CPU-facing port.
func (r *Router) LocalPort() *Port { return r.ports[r.localPort] }

// PortToward returns the port index facing the given neighbour node.
func (r *Router) PortToward(n NodeID) (int, bool) {
	i, ok := r.byNode[n]
	return i, ok
}

// Stats exposes the router's statistics block.
func (r *Router) Stats() *stats.Tile { return r.st }

// PendingPackets returns the injector queue length plus any packet
// currently being streamed into the local ingress.
func (r *Router) PendingPackets() int {
	n := len(r.pending) - r.pendHead
	if r.streaming {
		n++
	}
	return n
}

// OfferPacket queues a packet for injection at this node. The source and
// flow-sequence fields are stamped here. Callers run on the owning tile's
// thread during PhaseTransfer.
func (r *Router) OfferPacket(p Packet) {
	if p.Flits < 1 {
		panic("noc: packet must have at least one flit")
	}
	p.Src = r.ID
	r.pktCounter++
	p.ID = (uint64(r.ID)+1)<<40 | r.pktCounter
	r.flowSeq[p.Flow]++
	p.FlowSeq = r.flowSeq[p.Flow]
	if len(r.pending) == cap(r.pending) && r.pendHead > len(r.pending)/2 {
		// Reclaim the consumed prefix instead of growing: it frees more
		// slots than it copies, so queueing stays O(1) amortized.
		n := copy(r.pending, r.pending[r.pendHead:])
		clear(r.pending[n:])
		r.pending, r.pendHead = r.pending[:n], 0
	}
	r.pending = append(r.pending, pendingPacket{pkt: p})
}

// NextEvent implements the fast-forward query for the injector: if any
// packet is queued or streaming, the router can act next cycle.
func (r *Router) NextEvent(now uint64) uint64 {
	if r.PendingPackets() > 0 {
		return now + 1
	}
	return sim.NoEvent
}

// PhaseTransfer runs the positive clock edge: arrival stamping, injection
// streaming, route computation, VC allocation, switch arbitration and
// traversal. One scan finds the occupied ingress VCs; every later stage
// walks only those, so an idle router costs the scan and the one egress
// permutation draw that keeps its RNG stream in step.
func (r *Router) PhaseTransfer(cycle uint64) {
	r.occupied = r.occupied[:0]
	for _, st := range r.ingress {
		if live := st.buf.Len(); live > 0 {
			st.stampArrivals(cycle, live)
			r.occupied = append(r.occupied, st)
		}
	}
	// A flit injected now becomes visible next cycle, so it need not be
	// in this cycle's occupied list.
	r.injectFlits(cycle)
	r.routeAndAllocate(cycle)
	r.arbitrateAndTraverse(cycle)
	r.reportLinkDemand(cycle)
}

// PhaseCommit runs the negative clock edge: commit this cycle's ingress
// pops so producers see fresh credits and, on bandwidth-adaptive links,
// publish ingress free space and run the link arbiters.
func (r *Router) PhaseCommit(cycle uint64) {
	for _, b := range r.popped {
		b.Commit()
	}
	r.popped = r.popped[:0]
	if !r.bidir {
		return
	}
	for _, p := range r.ports {
		if p.Link == nil || !p.Link.Bidirectional {
			continue
		}
		free := 0
		for _, b := range p.In {
			free += b.Capacity() - b.Len()
		}
		p.Link.ReportSpace(p.Side, free)
		p.Link.Arbitrate(p.Side)
	}
}

// injectFlits streams the current packet's flits into the chosen local
// ingress VC, at most one flit per cycle (the CPU->switch channel), and
// starts the next pending packet when idle.
func (r *Router) injectFlits(cycle uint64) {
	if !r.streaming {
		if r.pendHead == len(r.pending) {
			return
		}
		pkt := r.pending[r.pendHead].pkt
		r.pending[r.pendHead] = pendingPacket{}
		r.pendHead++
		if r.pendHead == len(r.pending) {
			r.pending, r.pendHead = r.pending[:0], 0
		}
		r.startPacket(pkt)
	}
	// Stable per-flow VC choice keeps same-flow packets in FIFO order
	// through injection (required for EDVCA's in-order guarantee).
	local := r.ports[r.localPort]
	buf := local.In[r.curVC]
	st := &r.sourceState[r.curVC]
	if st.free(buf) < 1 {
		return // retry next cycle; paper's injector retransmission
	}
	f := r.curFlits[r.curNext]
	f.InjectedAt = cycle
	if f.Kind.IsHead() {
		f.HeadInjectedAt = cycle
	} else {
		f.HeadInjectedAt = r.curFlits[0].InjectedAt
	}
	f.VisibleAt = cycle + 1
	if !buf.Push(f) {
		panic("noc: injection push failed despite credit")
	}
	st.pushes++
	st.lastFlow = f.Flow
	r.curFlits[r.curNext] = f // keep InjectedAt for later flits' HeadInjectedAt
	r.curNext++
	r.st.FlitsInjected++
	r.st.BufWrites++
	r.inflight.Add(1)
	if r.curNext == len(r.curFlits) {
		r.streaming = false
	}
}

func (r *Router) startPacket(p Packet) {
	r.st.PacketsInjected++
	n := p.Flits
	if cap(r.curFlits) < n {
		r.curFlits = make([]Flit, n)
	}
	r.curFlits = r.curFlits[:n]
	r.streaming = true
	for i := 0; i < n; i++ {
		k := Body
		switch {
		case n == 1:
			k = HeadTail
		case i == 0:
			k = Head
		case i == n-1:
			k = Tail
		}
		r.curFlits[i] = Flit{
			Kind:    k,
			Flow:    p.Flow,
			Packet:  p.ID,
			Seq:     uint16(i),
			Len:     uint16(n),
			FlowSeq: p.FlowSeq,
			Src:     r.ID,
			Dst:     p.Dst,
		}
	}
	if p.Payload != nil {
		r.curFlits[0].Payload = p.Payload
	}
	r.curNext = 0
	r.curVC = int(uint32(p.Flow.Base()) % uint32(len(r.ports[r.localPort].In)))
}

// routeAndAllocate performs the RC and VA stages for every occupied
// ingress VC whose head flit is a packet head. VA requests are served in
// randomized order (paper §II-A5).
func (r *Router) routeAndAllocate(cycle uint64) {
	r.vaScratch = r.vaScratch[:0]
	for _, st := range r.occupied {
		f, ok := st.buf.Peek(cycle)
		if !ok {
			continue
		}
		// A packet stuck in VA re-runs route computation so schemes
		// with path diversity (PROM's escape channel, adaptive
		// routing) can resample a next hop whose VCs are free.
		if st.routed && !st.vaDone && cycle-st.routedAt > rerouteAfter {
			st.reset()
		}
		if !st.routed {
			if !f.Kind.IsHead() {
				panic(fmt.Sprintf("noc: router %d port %d vc %d: body flit %v at head without route", r.ID, st.port, st.vc, *f))
			}
			r.computeRoute(st, f, cycle)
			continue // VA next cycle at the earliest
		}
		if !st.vaDone && st.routedAt < cycle {
			r.vaScratch = append(r.vaScratch, st)
		}
	}
	if len(r.vaScratch) == 0 {
		return
	}
	if cap(r.candPerm) < len(r.vaScratch) {
		r.candPerm = make([]int, len(r.vaScratch))
	}
	perm := r.candPerm[:len(r.vaScratch)]
	r.rng.Perm(perm)
	for _, idx := range perm {
		r.allocateVC(r.vaScratch[idx], cycle)
	}
}

// computeRoute runs the RC stage: look up the weighted next-hop set and
// select one entry (by weight, or by downstream congestion when adaptive).
func (r *Router) computeRoute(st *vcState, f *Flit, cycle uint64) {
	entries := r.table.Lookup(st.prev, f.Flow)
	if len(entries) == 0 {
		panic(fmt.Sprintf("noc: router %d: no route for flow %v arriving from %d", r.ID, f.Flow, st.prev))
	}
	var chosen RouteEntry
	if len(entries) == 1 {
		chosen = entries[0]
	} else if r.adaptive {
		chosen = r.pickAdaptive(entries)
	} else {
		r.weights = r.weights[:0]
		for _, e := range entries {
			r.weights = append(r.weights, e.Weight)
		}
		chosen = entries[r.rng.Pick(r.weights)]
	}
	st.routed = true
	st.routedAt = cycle
	st.flow = f.Flow
	st.next = chosen.Next
	st.nextFlow = chosen.NextFlow
	st.pktID = f.Packet
	if chosen.Next == r.ID {
		st.egress = r.localPort
		// Ejection needs no VC allocation; eligible for SA next cycle.
		st.vaDone = true
		st.vaAt = cycle
		return
	}
	eg, ok := r.byNode[chosen.Next]
	if !ok {
		panic(fmt.Sprintf("noc: router %d: route for flow %v names non-neighbour %d", r.ID, f.Flow, chosen.Next))
	}
	st.egress = eg
}

// pickAdaptive chooses the entry whose egress has the most committed free
// space downstream, breaking ties pseudorandomly.
func (r *Router) pickAdaptive(entries []RouteEntry) RouteEntry {
	best, bestFree, ties := 0, -1, 1
	for i, e := range entries {
		free := 0
		if e.Next == r.ID {
			free = 1 << 20 // ejection is never congested from our side
		} else if eg, ok := r.byNode[e.Next]; ok {
			p := r.ports[eg]
			for vi, buf := range p.Out {
				free += p.outState[vi].free(buf)
			}
		}
		switch {
		case free > bestFree:
			best, bestFree, ties = i, free, 1
		case free == bestFree:
			ties++
			if r.rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return entries[best]
}

// allocateVC runs the VA stage for one ingress VC's head packet.
func (r *Router) allocateVC(st *vcState, cycle uint64) {
	eg := r.ports[st.egress]
	if eg.Out == nil {
		// Local ejection: nothing to allocate (handled in computeRoute,
		// but a route may eject via a later-added port arrangement).
		st.vaDone = true
		st.vaAt = cycle
		return
	}
	cands := r.vcaTable.Candidates(st.prev, st.flow, st.next, st.nextFlow, len(eg.Out))
	r.st.ArbEvents++
	var chosen = -1
	switch r.vcaMode {
	case VCAEDVCA:
		// Exclusive dynamic: the downstream VC must be free for
		// allocation and hold only our flow (or nothing).
		r.weights, r.vcOK = r.weights[:0], r.vcOK[:0]
		for _, c := range cands {
			ev := &eg.outState[c.VC]
			if ev.allocPacket != 0 {
				continue
			}
			if fl, res := ev.resident(eg.Out[c.VC]); res && fl != st.nextFlow {
				continue
			}
			r.vcOK = append(r.vcOK, c.VC)
			r.weights = append(r.weights, c.Weight)
		}
		if len(r.vcOK) > 0 {
			chosen = r.vcOK[r.rng.Pick(r.weights)]
		}
	case VCAFAA:
		// Flow-aware: same-flow VC first, else the emptiest free one.
		bestFree, ties := -1, 1
		for _, c := range cands {
			ev := &eg.outState[c.VC]
			if ev.allocPacket != 0 {
				continue
			}
			if fl, res := ev.resident(eg.Out[c.VC]); res && fl == st.nextFlow {
				chosen = c.VC
				bestFree = 1 << 30
				continue
			}
			free := ev.free(eg.Out[c.VC])
			switch {
			case free > bestFree:
				chosen, bestFree, ties = c.VC, free, 1
			case free == bestFree:
				ties++
				if r.rng.Intn(ties) == 0 {
					chosen = c.VC
				}
			}
		}
	default: // dynamic and static-set: any free candidate, by weight
		r.weights, r.vcOK = r.weights[:0], r.vcOK[:0]
		for _, c := range cands {
			if eg.outState[c.VC].allocPacket != 0 {
				continue
			}
			r.vcOK = append(r.vcOK, c.VC)
			r.weights = append(r.weights, c.Weight)
		}
		if len(r.vcOK) > 0 {
			chosen = r.vcOK[r.rng.Pick(r.weights)]
		}
	}
	if chosen < 0 {
		return // retry next cycle
	}
	st.vaDone = true
	st.vaAt = cycle
	st.outVC = chosen
	ev := &eg.outState[chosen]
	ev.allocPacket = st.pktID
	ev.allocFlow = st.nextFlow
}

// arbitrateAndTraverse runs SA and ST: for each egress port, in
// randomized order, pick among eligible ingress VCs (randomized) up to the
// link bandwidth, honouring one-flit-per-ingress-port-per-cycle crossbar
// constraints, then move winners.
//
// Eligibility is evaluated once per occupied VC, into per-egress buckets,
// before the egress rounds. A traversal in one round changes only the
// state of its ingress port, which ingressUsed then excludes, and the
// credits of its own egress, which that round had already read — so each
// round sees exactly what a fresh scan at that point would.
func (r *Router) arbitrateAndTraverse(cycle uint64) {
	eperm := r.egressPerm
	r.rng.Perm(eperm)
	if len(r.occupied) == 0 {
		return
	}
	for i := range r.saBuckets {
		r.saBuckets[i] = r.saBuckets[i][:0]
	}
	for _, st := range r.occupied {
		if !st.vaDone || st.vaAt >= cycle {
			continue
		}
		f, ok := st.buf.Peek(cycle)
		if !ok {
			continue
		}
		if f.Packet != st.pktID {
			// Next packet already at head; its own RC will run.
			continue
		}
		if eg := r.ports[st.egress]; eg.Out != nil && eg.outState[st.outVC].free(eg.Out[st.outVC]) < 1 {
			continue
		}
		r.saBuckets[st.egress] = append(r.saBuckets[st.egress], st)
	}

	var ingressUsed uint64 // bit per ingress port that moved a flit this cycle
	for _, ei := range eperm {
		if len(r.saBuckets[ei]) == 0 {
			continue
		}
		eg := r.ports[ei]
		budget := 1 // ejection channel, or a port without a modeled link
		if eg.Link != nil {
			budget = eg.Link.Grant(eg.Side)
		}
		if budget == 0 {
			continue
		}
		r.candScratch = r.candScratch[:0]
		for _, st := range r.saBuckets[ei] {
			if ingressUsed&(1<<uint(st.port)) == 0 {
				r.candScratch = append(r.candScratch, st)
			}
		}
		if len(r.candScratch) == 0 {
			continue
		}
		r.st.ArbEvents++
		if cap(r.candPerm) < len(r.candScratch) {
			r.candPerm = make([]int, len(r.candScratch))
		}
		perm := r.candPerm[:len(r.candScratch)]
		r.rng.Perm(perm)
		for _, ci := range perm {
			if budget == 0 {
				break
			}
			st := r.candScratch[ci]
			if ingressUsed&(1<<uint(st.port)) != 0 {
				continue
			}
			r.traverse(st, eg, cycle)
			ingressUsed |= 1 << uint(st.port)
			budget--
		}
	}
}

// traverse runs the ST stage for one winning flit: pop it, account its
// residency latency in this router, and either push it downstream (one
// link cycle) or deliver it locally.
func (r *Router) traverse(st *vcState, eg *Port, cycle uint64) {
	f := st.buf.Pop()
	r.popped = append(r.popped, st.buf)
	r.st.BufReads++
	r.st.BufWrites++ // ingress write modeled at pop time (same tile, same count)
	r.st.XbarTransits++
	// Residency in this router, measured in the local clock domain: the
	// arrival stamp is local; VisibleAt (producer clock + 1 link cycle)
	// only tightens it when the producer ran ahead within a sync chunk.
	arrival := st.popStamp(cycle)
	if f.VisibleAt > arrival {
		arrival = f.VisibleAt
	}
	f.Latency += cycle - arrival
	// Apply the routing table's flow renaming (two-phase schemes rename at
	// the intermediate hop; datelines rename at the wrap crossing).
	f.Flow = st.nextFlow
	if eg.Out == nil {
		// Ejection to the local CPU port.
		r.deliver(f, cycle)
	} else {
		f.Latency++ // link traversal
		f.Hops++
		f.VisibleAt = cycle + 1
		ev := &eg.outState[st.outVC]
		if !eg.Out[st.outVC].Push(f) {
			panic(fmt.Sprintf("noc: router %d: downstream push without credit (port %d vc %d)", r.ID, st.egress, st.outVC))
		}
		ev.pushes++
		ev.lastFlow = f.Flow
		r.st.LinkTransits++
		if f.Kind.IsTail() {
			ev.allocPacket = 0
		}
	}
	if f.Kind.IsTail() {
		st.reset()
	}
}

// deliver ejects a flit at its destination, folds its statistics and
// reassembles packets for the local receiver.
func (r *Router) deliver(f Flit, cycle uint64) {
	if f.Dst != r.ID {
		panic(fmt.Sprintf("noc: flit for %d ejected at %d (flow %v)", f.Dst, r.ID, f.Flow))
	}
	r.st.FlitsDelivered++
	r.st.FlitLatencySum += f.Latency
	r.st.HopSum += uint64(f.Hops)
	r.inflight.Add(-1)
	switch f.Kind {
	case Head:
		r.assembly[f.Packet] = assembling{head: f}
		return
	case Body:
		return
	}
	// Tail or HeadTail: the packet is complete.
	var payload any
	headInj := f.HeadInjectedAt
	if f.Kind == Tail {
		if a, ok := r.assembly[f.Packet]; ok {
			payload = a.head.Payload
			headInj = a.head.InjectedAt
			delete(r.assembly, f.Packet)
		}
	} else {
		payload = f.Payload
	}
	// Packet latency: tail's accumulated latency plus the source-domain
	// gap between head injection and tail injection (no cross-tile clock
	// arithmetic; paper §II-C).
	pktLat := f.Latency + (f.InjectedAt - headInj)
	r.st.RecordPacketDelivered(uint32(f.Flow.Base()), f.FlowSeq, pktLat)
	if r.recv != nil {
		r.recv.ReceivePacket(Packet{
			ID:      f.Packet,
			Flow:    f.Flow.Base(),
			Src:     f.Src,
			Dst:     f.Dst,
			Flits:   int(f.Len),
			FlowSeq: f.FlowSeq,
			Payload: payload,
			Latency: pktLat,
		}, cycle)
	}
}

// reportLinkDemand publishes, for each bidirectional link, how many
// SA-eligible flits want to cross it (used by the bandwidth arbiter).
func (r *Router) reportLinkDemand(cycle uint64) {
	if !r.bidir {
		return
	}
	clear(r.demand)
	for _, st := range r.occupied {
		if st.vaDone {
			if _, ok := st.buf.Peek(cycle); ok {
				r.demand[st.egress]++
			}
		}
	}
	for ei, eg := range r.ports {
		if eg.Link != nil && eg.Out != nil {
			eg.Link.ReportDemand(eg.Side, r.demand[ei])
		}
	}
}
