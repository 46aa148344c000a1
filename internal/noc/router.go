package noc

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"hornet/internal/sim"
	"hornet/internal/stats"
)

// Receiver consumes packets delivered to a node's local (CPU) port after
// flit reassembly. Implementations run on the worker stepping the owning
// tile (one worker at a time, handed over only at the barrier).
type Receiver interface {
	ReceivePacket(p Packet, cycle uint64)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(p Packet, cycle uint64)

// ReceivePacket calls f(p, cycle).
func (f ReceiverFunc) ReceivePacket(p Packet, cycle uint64) { f(p, cycle) }

// egressVC is the producer-side bookkeeping for one downstream VC: the
// wormhole allocation state, the cumulative push count, and the cell the
// downstream buffer commits its pops into — their difference is the
// deterministic credit view, read without leaving this record — and rings
// when this router has parked the ingress VC holding the allocation on it.
// buf, capacity and vc are fixed when the egress is connected. The record
// is one cache line (TestVCStateLayout): a credit check reads one line.
// The cell comes last, so that when the allocator starts the records 8
// bytes into a line, what crosses into the next is the cell's payload-ring
// pointer, which only protocol traffic reads.
type egressVC struct {
	pushes      uint64
	allocPacket uint64 // packet currently allocated this VC; 0 = free
	allocFlow   FlowID
	lastFlow    FlowID // flow of the most recent flit pushed

	buf      *VCBuffer // the downstream ingress buffer
	capacity uint32    // its capacity
	vc       uint32    // its index on the downstream port

	credit creditCell // the downstream buffer's committed pops, who waits for them, and its payload ring
}

// connect binds the record to downstream VC vc and takes over its credit
// cell (build time only).
func (e *egressVC) connect(vc int, buf *VCBuffer) {
	e.buf, e.capacity, e.vc = buf, uint32(buf.Capacity()), uint32(vc)
	buf.attachCredit(&e.credit)
}

// resident reports whether, from the producer's view in the cycle after
// prev, the downstream VC still holds flits, and of which flow (valid only
// under single-flow-at-a-time disciplines such as EDVCA, which is when it
// is consulted).
func (e *egressVC) resident(prev uint64) (FlowID, bool) {
	if uint16(e.pushes) == e.credit.view(prev) {
		return 0, false
	}
	return e.lastFlow, true
}

// free is the downstream space the producer may use in the cycle after
// prev, the last cycle its router ran.
func (e *egressVC) free(prev uint64) int { return e.freeBy(e.credit.view(prev)) }

func (e *egressVC) freeBy(committed uint16) int {
	return int(e.capacity) - int(uint16(e.pushes)-committed)
}

// headStale in vcState.headVis says the head-flit descriptor must be read
// from the buffer again (no flit carries that VisibleAt).
const headStale = ^uint64(0)

// vcState is one ingress VC of a router: the buffer header, the pipeline
// state for the packet currently at the head of that VC, and what the
// router has derived from both. A router's records sit in one array,
// port-major and VC-minor, and PhaseTransfer visits the occupied ones once
// per cycle, so the fields are ordered by who reads them: the first 64
// bytes decide what an occupied VC may do this cycle (a VC blocked on credit
// or on an invisible head never leaves them), the rest serves route
// computation, VC allocation and the flit's move. No field is an 8-byte int
// that need not be, which keeps the record at 128 bytes
// (TestVCStateLayout); it holds atomics, so records are never copied.
//
// The arrival stamps keep latency accounting within one clock domain per
// hop (paper §II-C: stats ride with the flits and are updated
// incrementally, so loose synchronization cannot compound cross-tile
// clock skew into latency): one local-clock arrival time per resident flit
// the owning tile's scan has seen, in Router.stamps at the flit's own ring
// position (slot0 + position), so the stamp ring needs no head of its own.
type vcState struct {
	// Derived, never serialized, rebuilt after a restore: the head flit's
	// VisibleAt and Packet, read once when the flit becomes the head
	// (headVis == headStale until then), so a VC that cannot move does not
	// touch its flit; and the downstream VC allocated at VA (nil before VA
	// and for ejection).
	headVis    uint64
	headPacket uint64
	ev         *egressVC

	pktID  uint64
	vaAt   uint64
	sCount uint32 // resident flits stamped so far
	routed bool
	vaDone bool
	port   uint8 // index of the ingress port this VC belongs to
	egress uint8

	buf VCBuffer // pushes and pops first: they end the record's first line

	routedAt uint64
	flow     FlowID // flow ID the packet arrived with (VCA lookup key)
	nextFlow FlowID
	next     NodeID
	slot0    uint32 // the buffer's first slot in Router.flits and Router.stamps
}

func (s *vcState) reset() {
	s.routed, s.vaDone = false, false
	s.routedAt, s.vaAt = 0, 0
	s.flow, s.nextFlow = 0, 0
	s.next, s.egress = 0, 0
	s.pktID = 0
	s.ev = nil
}

// readHead refreshes the head-flit descriptor from the buffer, which must
// hold a flit the router's pass has seen, and returns that flit.
func (s *vcState) readHead() *Flit {
	f := s.buf.headSlot()
	s.headVis, s.headPacket = f.VisibleAt, f.Packet
	return f
}

// outVC is the downstream VC index allocated at VA (0 when none is).
func (s *vcState) outVC() int {
	if s.ev == nil {
		return 0
	}
	return int(s.ev.vc)
}

// Port couples one ingress port (VC buffers owned by this router) with
// the egress channel toward the same neighbour (pointers to the
// neighbour's ingress buffers plus producer bookkeeping).
type Port struct {
	Neighbor NodeID // InvalidNode for the local CPU port

	In      []*VCBuffer // this router's ingress VCs for flits from Neighbor
	inState []vcState   // the records In points into (a window of Router.vcs)

	Out      []*VCBuffer // neighbour's ingress VCs for flits to Neighbor (nil on local port)
	outState []egressVC
	freeVCs  int // outState records no packet holds (allocPacket == 0)

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

// pendingPacket is a queued injection: what a packet holds that is not
// derived. Its source is the router, its destination the flow's, its
// latency 0, its ID follows from its place in the queue (queuedID), and its
// flow sequence number is handed out when it leaves the queue (popPending:
// the queue is FIFO, so a flow's packets leave in the order they were
// offered and get the numbers offering would have given them); a payload
// waits in Router.payloads. 8 bytes (TestPendingPacketLayout), where a
// Packet is 64: past saturation the source queues are the only state that
// grows with simulated time.
type pendingPacket struct {
	flow  FlowID
	flits uint16
	flags uint16
}

// sourceFlow is what a source keeps per flow: how many of the flow's
// packets have started streaming — the last one's FlowSeq — and the flow's
// first-hop line (RouteLine.ID; 0 until looked up, or if the table numbers
// none), which the head flit carries, so the table is asked once per flow.
type sourceFlow struct {
	started uint64
	line    uint32
}

// pendPayload marks a queued packet whose payload is next in Router.payloads.
const pendPayload uint16 = 1

// fifo is a queue in a slice: items[head:] are live. The consumed prefix is
// reclaimed when the queue empties, or before the slice grows once more
// than half of it is consumed, so queueing stays O(1) amortized.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) size() int { return len(q.items) - q.head }

func (q *fifo[T]) live() []T { return q.items[q.head:] }

func (q *fifo[T]) push(v T) {
	if len(q.items) == cap(q.items) && q.head > len(q.items)/2 {
		// Reclaiming frees more slots than it copies.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

func (q *fifo[T]) reset() {
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}

// assembling tracks a packet mid-reassembly at the ejection port: its head
// flit, which names the packet, and the payload the head brought.
type assembling struct {
	head    Flit
	payload any
}

// Router is a cycle-level model of one ingress-queued wormhole VC router.
// All methods are called by the worker stepping the owning tile — one
// worker at a time, handed over only at the barrier; the ingress VC buffers
// and the credit words of the egress records are the only cross-thread
// touch points.
type Router struct {
	// What every cycle touches, even an idle one, comes first: an idle
	// cycle reads occ's one word, the injection queue's bounds, two flags
	// and the port count, and steps rng.

	// occ is the occupancy mask, the router's one doorbell: bit i is set
	// while vcs[i]'s buffer holds a flit the router has a reason to look at —
	// resident, and not parked on a credit (see VCBuffer for who rings and
	// who clears). It is how the router finds the VCs to visit, and the only
	// way. The words — one for every 64 ingress VCs — sit on a cache line of
	// their own, because the neighbours' threads write them.
	occ []atomic.Uint64
	rng *sim.RNG
	// Injection queue: the packets waiting to stream in, oldest first.
	pending   fifo[pendingPacket]
	streaming bool // a packet is streaming in (cur)
	saFilled  bool // some saBuckets entry is non-empty
	// bidir is set when any port's link is bandwidth-adaptive: only then
	// do demand and free space have a reader, every cycle.
	bidir      bool
	egressPerm []int
	// vcs is every ingress VC's record, port-major and VC-minor (rng.Perm
	// indexes into lists filtered from it in that order, so the order is
	// part of the determinism contract). With flits, the slots of all
	// their buffers, and stamps, one arrival stamp per slot, it is the
	// ingress state NewRouter allocates once.
	vcs []vcState
	// popped collects the commits of the buffers popped this cycle, which
	// the negative edge publishes (see VCBuffer).
	popped []commit
	// last is the last cycle whose positive edge the router finished; while
	// one runs, the cycle whose end its credits and links are read as of:
	// cycle-1, or older after a fast-forward jump.
	last      uint64
	vaScratch []*vcState // VCs waiting for VC allocation this cycle

	saBuckets [][]*vcState // SA-eligible VCs per egress port
	st        *stats.Tile
	flits     []Flit
	stamps    []uint64

	ID        NodeID
	ports     []*Port
	localPort int

	table    RouteTable
	vcaTable VCATable
	vcaMode  VCAMode
	adaptive bool

	inflight *atomic.Int64
	recv     Receiver

	// The packet streaming in, and injection bookkeeping. Its flits are
	// built from its head flit as they are pushed (streamFlit).
	cur         Flit     // the streaming packet's head flit, before injection
	curInj      []uint64 // the cycle each of its flits pushed so far was injected (storage reused across packets)
	curPayload  any      // the streaming packet's payload, which its head flit carries
	curVC       int
	payloads    fifo[any] // the queued packets' payloads, oldest first
	pktCounter  uint64
	flows       map[FlowID]sourceFlow
	sourceState []egressVC // producer bookkeeping for the local ingress VCs

	// Reassembly state at the ejection port: the packets whose head has been
	// delivered and whose tail has not, by packet ID. A packet holds the
	// ingress VC it ejects from until its tail leaves, so there is at most
	// one per ingress VC.
	assembly []assembling

	// Scratch buffers reused across cycles to avoid allocation.
	candScratch []*vcState
	candPerm    []int
	vcOK        []int
	weights     []float64
	demand      []int // SA-ready flits per egress port
}

// rerouteAfter is the VA-starvation threshold (cycles) after which a
// routed-but-unallocated packet re-runs route computation.
const rerouteAfter = 15

// PortParams describes one network port: the neighbour it faces and the
// geometry of its ingress VCs.
type PortParams struct {
	Neighbor NodeID
	VCs      int
	BufFlits int
}

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
	// Ports lists the network ports, in port-index order after the local
	// port (index 0).
	Ports []PortParams
}

// maxPorts bounds a router's port count: switch arbitration tracks the
// ingress ports used this cycle in one 64-bit word.
const maxPorts = 64

// NewRouter creates a router with its local port and the given network
// ports and lays out all of its ingress state: one block of VC records,
// one slab of flit slots and one of arrival stamps. The egress side of
// each network port is wired afterwards with ConnectEgress.
func NewRouter(p RouterParams) *Router {
	// Port 0 is the local port; the network ports follow.
	geometry := append([]PortParams{{Neighbor: InvalidNode, VCs: p.LocalVCs, BufFlits: p.LocalBufFlits}}, p.Ports...)
	nPorts := len(geometry)
	if nPorts > maxPorts {
		panic(fmt.Sprintf("noc: router %d has %d ports, at most %d are supported", p.ID, nPorts, maxPorts))
	}
	nVCs, nSlots := 0, 0
	for pi, g := range geometry {
		if g.VCs < 1 || g.BufFlits < 1 || g.BufFlits > MaxVCBufFlits {
			panic(fmt.Sprintf("noc: router %d port %d needs at least one VC and 1 to %d buffer slots", p.ID, pi, MaxVCBufFlits))
		}
		nVCs += g.VCs
		nSlots += g.VCs * g.BufFlits
	}
	r := &Router{
		ID:          p.ID,
		table:       p.Table,
		vcaTable:    p.VCATable,
		vcaMode:     p.VCAMode,
		adaptive:    p.Adaptive,
		rng:         p.RNG,
		st:          p.Stats,
		inflight:    p.InFlight,
		flows:       make(map[FlowID]sourceFlow),
		occ:         newOccupancyMask(nVCs),
		vcs:         make([]vcState, nVCs),
		flits:       make([]Flit, nSlots),
		stamps:      make([]uint64, nSlots),
		ports:       make([]*Port, nPorts),
		sourceState: make([]egressVC, p.LocalVCs),
		egressPerm:  make([]int, nPorts),
		saBuckets:   make([][]*vcState, nPorts),
		demand:      make([]int, nPorts),
		last:        ^uint64(0),
	}
	if t, ok := p.Table.(Adaptiver); ok && t.Adaptive() {
		r.adaptive = true
	}
	ports := make([]Port, nPorts)
	in := make([]*VCBuffer, nVCs)
	vc0, slot0 := 0, 0
	for pi, g := range geometry {
		port := &ports[pi]
		port.Neighbor = g.Neighbor
		port.In = in[vc0 : vc0+g.VCs : vc0+g.VCs]
		port.inState = r.vcs[vc0 : vc0+g.VCs : vc0+g.VCs]
		for vi := range port.inState {
			st := &port.inState[vi]
			st.port = uint8(pi)
			st.headVis = headStale
			st.slot0 = uint32(slot0)
			st.buf.setSlots(r.flits[slot0 : slot0+g.BufFlits])
			st.buf.occ, st.buf.bit = &r.occ[(vc0+vi)/64], uint8((vc0+vi)%64)
			port.In[vi] = &st.buf
			slot0 += g.BufFlits
		}
		vc0 += g.VCs
		r.ports[pi] = port
	}
	// The router is its local ingress VCs' producer.
	for vi := range r.sourceState {
		r.sourceState[vi].connect(vi, ports[0].In[vi])
	}
	return r
}

// newOccupancyMask returns one mask word per 64 VCs, in an allocation
// rounded up to whole cache lines so that the words share a line with
// nothing else (the allocator places a block of that size on a boundary of
// its own size class, a multiple of the line; TestVCStateLayout checks).
func newOccupancyMask(nVCs int) []atomic.Uint64 {
	const wordsPerLine = 8
	words := (nVCs + 63) / 64
	lines := (words + wordsPerLine - 1) / wordsPerLine
	return make([]atomic.Uint64, lines*wordsPerLine)[:words]
}

// portToward returns the index of the port facing neighbour n, the last
// one if several do (two-node rings and tori wire the same pair twice;
// routes use the later port), or -1.
func (r *Router) portToward(n NodeID) int {
	for i := len(r.ports) - 1; i > 0; i-- {
		if r.ports[i].Neighbor == n {
			return i
		}
	}
	return -1
}

// prevOf returns the node a VC's flits arrive from (the router itself on
// the local port) — the routing and VCA tables' prev key.
func (r *Router) prevOf(st *vcState) NodeID {
	if int(st.port) == r.localPort {
		return r.ID
	}
	return r.ports[st.port].Neighbor
}

// ConnectEgress wires this router's port toward neighbor to the
// neighbour's ingress buffers and the shared link, and takes their credit
// words into its egress records. When several ports face the same
// neighbour, successive calls wire them in port order.
func (r *Router) ConnectEgress(neighbor NodeID, downstream []*VCBuffer, link *Link, side int) {
	var p *Port
	for _, q := range r.ports[1:] {
		if q.Neighbor == neighbor && q.Out == nil {
			p = q
			break
		}
	}
	if p == nil {
		panic(fmt.Sprintf("noc: router %d has no unconnected port facing %d", r.ID, neighbor))
	}
	p.Out = downstream
	p.outState = make([]egressVC, len(downstream))
	for vi, buf := range downstream {
		p.outState[vi].connect(vi, buf)
	}
	p.freeVCs = len(downstream)
	p.Link = link
	p.Side = side
	if link != nil {
		link.in[1-side] = downstream
		r.bidir = r.bidir || link.Bidirectional
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
	i := r.portToward(n)
	return i, i >= 0
}

// Stats exposes the router's statistics block.
func (r *Router) Stats() *stats.Tile { return r.st }

// PendingPackets returns the injector queue length plus any packet
// currently being streamed into the local ingress.
func (r *Router) PendingPackets() int {
	n := r.pending.size()
	if r.streaming {
		n++
	}
	return n
}

// OfferPacket queues a packet for injection at this node. The source and
// ID are stamped here, the flow sequence number when the packet starts
// streaming, and Latency on delivery. A packet must have 1 to
// MaxPacketFlits flits, its flow's destination, and a flow from this router
// (the routing store finds a flow's first-hop line by the flow alone, and a
// flit takes its endpoints from its flow). Callers run on the owning tile's
// thread during PhaseTransfer.
func (r *Router) OfferPacket(p Packet) {
	if p.Flits < 1 || p.Flits > MaxPacketFlits {
		panic(fmt.Sprintf("noc: router %d: packet of %d flits, want 1 to %d", r.ID, p.Flits, MaxPacketFlits))
	}
	if p.Dst != p.Flow.Dst() {
		panic(fmt.Sprintf("noc: router %d: packet to %d on flow %v", r.ID, p.Dst, p.Flow))
	}
	if p.Flow.Src() != r.ID {
		panic(fmt.Sprintf("noc: router %d: packet on flow %v from another source", r.ID, p.Flow))
	}
	r.pktCounter++
	r.enqueue(p)
}

// enqueue queues p's record, and its payload if it carries one.
func (r *Router) enqueue(p Packet) {
	pp := pendingPacket{flow: p.Flow, flits: uint16(p.Flits)}
	if p.Payload != nil {
		pp.flags = pendPayload
		r.payloads.push(p.Payload)
	}
	r.pending.push(pp)
}

// queuedID is the ID of the queued packet with behind packets queued after
// it: OfferPacket hands out IDs in queue order.
func (r *Router) queuedID(behind int) uint64 {
	return (uint64(r.ID)+1)<<40 | (r.pktCounter - uint64(behind))
}

// queuedPacket rebuilds a queued packet, payload and flow sequence number
// aside, from its record.
func (r *Router) queuedPacket(pp pendingPacket, behind int) Packet {
	return Packet{
		ID:    r.queuedID(behind),
		Flow:  pp.flow,
		Src:   r.ID,
		Dst:   pp.flow.Dst(),
		Flits: int(pp.flits),
	}
}

// popPending dequeues the oldest queued packet and hands out its flow
// sequence number.
func (r *Router) popPending() Packet {
	pp := r.pending.pop()
	p := r.queuedPacket(pp, r.pending.size())
	sf := r.flows[p.Flow]
	sf.started++
	r.flows[p.Flow] = sf
	p.FlowSeq = sf.started
	if pp.flags&pendPayload != 0 {
		p.Payload = r.payloads.pop()
	}
	return p
}

// NextEvent implements the fast-forward query for the injector: if any
// packet is queued or streaming, the router can act next cycle.
func (r *Router) NextEvent(now uint64) uint64 {
	if r.PendingPackets() > 0 {
		return now + 1
	}
	return sim.NoEvent
}

// PhaseTransfer runs the positive clock edge: arrival stamping, route
// computation, injection streaming, VC allocation, switch arbitration and
// traversal. Its work is proportional to what can make progress: one pass
// visits the ingress VCs the occupancy mask names — occupied, and not parked
// on a credit — and sorts them by what they may do this cycle; every later
// stage is entered only if the pass (or the injection queue) left it
// something. A router with no bit set and nothing to inject — empty, or
// with every resident flit waiting for a credit — does none of it: it loads
// its mask, steps its generator past the egress permutation it would have
// drawn, and is done. A router with a bandwidth-adaptive link runs its side
// of the link arbiter before all that and reports its demand after it, every
// cycle, idle or not.
//
// A flit a neighbour pushes while or after the mask is read is noticed a
// cycle later, which changes nothing: it is not visible before the next
// cycle (VisibleAt = push cycle + 1) and its arrival counts from
// max(stamp, VisibleAt). Credits and link state are read as the end of the
// router's last cycle left them, whatever a neighbour's negative edge
// writes meanwhile.
func (r *Router) PhaseTransfer(cycle uint64) {
	if r.bidir {
		r.arbitrateLinks(cycle)
	}
	injecting := r.streaming || r.pending.size() != 0
	if !injecting && !r.anyOccupied() {
		r.skipEgressPerm()
	} else {
		r.scanIngress(cycle)
		// A flit injected now becomes visible next cycle, so the pass need
		// not have seen it; injection draws no random numbers.
		if injecting {
			r.injectFlits(cycle)
		}
		if len(r.vaScratch) > 0 {
			r.allocateVCs(cycle)
		}
		if r.saFilled {
			r.arbitrateAndTraverse(cycle)
		} else {
			r.skipEgressPerm()
		}
	}
	if r.bidir {
		r.reportLinkDemand(cycle)
	}
	r.last = cycle
}

// anyOccupied reports whether any ingress VC's occupancy bit is set.
func (r *Router) anyOccupied() bool {
	for w := range r.occ {
		if r.occ[w].Load() != 0 {
			return true
		}
	}
	return false
}

// skipEgressPerm leaves the generator where drawing the egress permutation
// would have: every cycle draws it or skips it, at the same point of the
// cycle's draw order, so the stream position — part of what every pinned
// digest and snapshot depends on — does not depend on whether anything was
// there to arbitrate.
func (r *Router) skipEgressPerm() { r.rng.Skip(len(r.egressPerm) - 1) }

// PhaseCommit runs the negative clock edge: commit this cycle's ingress
// pops, which producers see from the next cycle on. A router that popped
// nothing has no negative edge; the test is small enough to be inlined into
// the caller.
func (r *Router) PhaseCommit(cycle uint64) {
	if len(r.popped) > 0 {
		r.commit(cycle)
	}
}

// commit stores each popped buffer's count under this cycle's stamp: one
// store per pop, which a producer running this cycle discounts and every
// later cycle reads as it stands (creditCell.view).
func (r *Router) commit(cycle uint64) {
	stamp := creditStamp(cycle)
	for _, c := range r.popped {
		c.publish(stamp)
	}
	r.popped = r.popped[:0]
}

// arbitrateLinks sets, for each bandwidth-adaptive link, the bandwidth this
// side may send this cycle. It runs before anything moves: this side's
// ingress, but for what the far side pushes meanwhile, and its credits show
// both ingresses as the last cycle left them.
func (r *Router) arbitrateLinks(cycle uint64) {
	for _, p := range r.ports {
		if p.Link != nil && p.Link.Bidirectional {
			far := 0
			for vi := range p.outState {
				far += p.outState[vi].free(r.last)
			}
			p.Link.arbitrate(p.Side, r.last, freeSlots(p.In, cycle), far)
		}
	}
}

// scanIngress is the one visit an ingress VC with its occupancy bit set gets
// per cycle: it walks the set bits of the mask in ascending order, which is
// the records' order. For each it loads the occupancy once, stamps
// arrivals, and for a VC whose head flit is visible either runs its RC
// stage on the spot (in VC order, as the random draws of route selection
// require), files it — waiting for a VC into vaScratch, switch-eligible
// into its egress port's saBuckets entry — or, if all it lacks is a credit,
// parks it.
//
// Deciding switch eligibility here, before this cycle's RC and VA, is
// sound because a VC routed or allocated this cycle is not eligible until
// the next (vaAt >= cycle), and neither stage moves a credit. The pass
// draws no random number of its own, so route selection, the VA
// permutation, the egress permutation and the per-egress permutations
// draw in the order every pinned digest depends on.
//
// What a blocked VC costs is the point. Blocked on credit, it costs one
// visit — decided from the first line of its record and the one line of its
// egress record, without touching the flit — and then nothing until the
// credit returns or a flit arrives behind its head (park). A VC whose head
// is still on the link, or that waits for a downstream VC, is visited every
// cycle: the clock wakes the first, the second reroutes after rerouteAfter.
func (r *Router) scanIngress(cycle uint64) {
	r.vaScratch = r.vaScratch[:0]
	if r.saFilled {
		for i := range r.saBuckets {
			r.saBuckets[i] = r.saBuckets[i][:0]
		}
		r.saFilled = false
	}
	for w := range r.occ {
		for mask := r.occ[w].Load(); mask != 0; mask &= mask - 1 {
			i := w*64 + bits.TrailingZeros64(mask)
			st := &r.vcs[i]
			live := uint32(st.buf.Len())
			if live == 0 {
				// A producer's Or landed after its flit was already popped
				// (see VCBuffer).
				st.buf.deriveOccupancy()
				continue
			}
			if live > st.sCount {
				r.stampArrivals(st, cycle, live)
			}
			if st.headVis > cycle {
				if st.headVis != headStale {
					continue // the head is still on the link
				}
				// VisibleAt values are monotone along the queue (producer clock
				// never decreases), so checking only the head suffices.
				if st.readHead().VisibleAt > cycle {
					continue
				}
			}
			if st.vaDone {
				// headPacket != pktID: next packet already at head; its own RC
				// will run.
				if st.vaAt < cycle && st.headPacket == st.pktID {
					if st.ev == nil || st.ev.free(r.last) >= 1 {
						r.saBuckets[st.egress] = append(r.saBuckets[st.egress], st)
						r.saFilled = true
					} else {
						st.park() // only a credit can move it: no visit until then
					}
				}
				continue
			}
			// A packet stuck in VA re-runs route computation so schemes with
			// path diversity (PROM's escape channel, adaptive routing) can
			// resample a next hop whose VCs are free.
			if st.routed && cycle-st.routedAt > rerouteAfter {
				st.reset()
			}
			if !st.routed {
				f := st.buf.headSlot()
				if !f.Kind.IsHead() {
					panic(fmt.Sprintf("noc: router %d port %d (ingress vc %d): body flit %v at head without route", r.ID, st.port, i, *f))
				}
				r.computeRoute(st, f, cycle) // VA next cycle at the earliest
			} else if st.routedAt < cycle {
				r.vaScratch = append(r.vaScratch, st)
			}
		}
	}
}

// park puts to sleep a VC whose head flit the pass found ready to move but
// for a credit (VA done, head visible, every resident stamped, no free slot
// downstream): it arms the egress record's waiter, clears the VC's
// occupancy bit, and then looks once more at the two things that end the
// wait — the credit, and a flit arriving behind the head, which must be
// stamped at the cycle it arrives — setting the bit back if either moved
// meanwhile (VCBuffer has the argument why neither can be missed; the
// credit it looks at is the latest, not the one usable this cycle) and
// taking the waiter back, so that no later credit rings a VC that may have
// emptied by then. A VC in this state is filed nowhere and draws nothing,
// so the pass that follows its wake finds it exactly as if it had visited
// it every cycle in between — the demand a bandwidth-adaptive link's report
// counts included, which looks at every ingress record.
func (st *vcState) park() {
	b := &st.buf
	st.ev.credit.waiter.Store(b)
	m := uint64(1) << b.bit
	b.occ.And(^m)
	if st.ev.freeBy(st.ev.credit.latest()) >= 1 || uint32(b.Len()) != st.sCount {
		b.occ.Or(m)
		st.ev.credit.waiter.CompareAndSwap(b, nil)
	}
}

// Parked counts the ingress VCs that are asleep — flits resident, occupancy
// bit clear — and describes each one that nothing keeps asleep (a credit is
// there, or a resident the pass has not seen): a lost wake. For tests and
// diagnostics, at a synchronization point.
func (r *Router) Parked() (n int, lost []string) {
	for i := range r.vcs {
		st := &r.vcs[i]
		resident := st.buf.Len()
		if resident == 0 || st.buf.occ.Load()>>st.buf.bit&1 != 0 {
			continue
		}
		n++
		free := -1 // no downstream VC: nothing to wait for
		if st.ev != nil {
			free = st.ev.freeBy(st.ev.credit.latest())
		}
		if free != 0 || uint32(resident) != st.sCount {
			lost = append(lost, fmt.Sprintf("router %d ingress vc %d (port %d) is asleep with %d flits, %d of them seen, and %d free slots in egress port %d vc %d",
				r.ID, i, st.port, resident, st.sCount, free, st.egress, st.outVC()))
		}
	}
	return n, lost
}

// stampArrivals records the local cycle for flits that appeared in the
// buffer since the last pass.
func (r *Router) stampArrivals(st *vcState, cycle uint64, live uint32) {
	pos := st.buf.pos(st.sCount)
	for st.sCount < live {
		r.stamps[st.slot0+pos] = cycle
		pos = st.buf.wrap(pos + 1)
		st.sCount++
	}
}

// popStamp consumes the head flit's arrival stamp; call it before the
// buffer advances. Only VCs the pass filed are popped, each was stamped
// for at least one flit by that pass and loses at most one flit per cycle,
// so a flit a neighbour pushes after the pass (loose synchronization)
// waits for the next one and the count cannot run out here. The
// sCount == 0 branch is a defensive guard for that invariant: it keeps the
// count from wrapping and answers with the current local cycle, the value
// saveVCState records for unscanned residents.
func (r *Router) popStamp(st *vcState, cycle uint64) uint64 {
	if st.sCount == 0 {
		return cycle
	}
	st.sCount--
	return r.stamps[st.slot0+st.buf.head]
}

// injectFlits streams the current packet's flits into the chosen local
// ingress VC, at most one flit per cycle (the CPU->switch channel), and
// starts the next pending packet when idle. The caller has checked that a
// packet is streaming or pending.
func (r *Router) injectFlits(cycle uint64) {
	if !r.streaming {
		r.startPacket(r.popPending())
	}
	// Stable per-flow VC choice keeps same-flow packets in FIFO order
	// through injection (required for EDVCA's in-order guarantee).
	src := &r.sourceState[r.curVC]
	if src.free(r.last) < 1 {
		return // retry next cycle; paper's injector retransmission
	}
	r.curInj = append(r.curInj, cycle)
	var payload any
	if len(r.curInj) == 1 {
		payload = r.curPayload
	}
	if !src.buf.Push(r.streamFlit(len(r.curInj)-1), payload) {
		panic("noc: injection push failed despite credit")
	}
	src.pushes++
	src.lastFlow = r.cur.Flow
	r.st.FlitsInjected++
	r.st.BufWrites++
	r.inflight.Add(1)
	if len(r.curInj) == int(r.cur.Len) {
		r.streaming, r.curPayload = false, nil
	}
}

// startPacket makes p, just dequeued, the streaming packet, and puts its
// flow's first-hop line, looked up on the flow's first packet, in its head
// flit.
func (r *Router) startPacket(p Packet) {
	r.st.PacketsInjected++
	line := r.flows[p.Flow].line
	if line == 0 {
		if l := r.table.Lookup(r.ID, p.Flow); l != nil && l.ID != 0 {
			line = l.ID
			r.flows[p.Flow] = sourceFlow{started: p.FlowSeq, line: line}
		}
	}
	r.cur = Flit{
		Kind:    headKind(p.Flits),
		Flow:    p.Flow,
		Packet:  p.ID,
		Len:     uint16(p.Flits),
		FlowSeq: p.FlowSeq,
		line:    line,
	}
	r.curInj = r.curInj[:0]
	r.curPayload = p.Payload
	r.curVC = int(uint32(p.Flow.Base()) % uint32(len(r.sourceState)))
	r.streaming = true
}

// headKind is the kind of the head flit of a packet of n flits.
func headKind(n int) Kind {
	if n == 1 {
		return HeadTail
	}
	return Head
}

// streamFlit is flit i of the streaming packet as it stands: the head flit
// renumbered, and, once pushed, stamped with its injection cycle.
func (r *Router) streamFlit(i int) Flit {
	f := r.cur
	if i > 0 {
		f.Kind, f.Seq, f.line = Body, uint16(i), 0
		if i == int(f.Len)-1 {
			f.Kind = Tail
		}
	}
	if i < len(r.curInj) {
		f.InjectedAt, f.HeadInjectedAt, f.VisibleAt = r.curInj[i], r.curInj[0], r.curInj[i]+1
	}
	return f
}

// allocateVCs runs the VA stage for the VCs the pass found waiting (at
// least one), in randomized order (paper §II-A5).
func (r *Router) allocateVCs(cycle uint64) {
	if cap(r.candPerm) < len(r.vaScratch) {
		r.candPerm = make([]int, len(r.vaScratch))
	}
	perm := r.candPerm[:len(r.vaScratch)]
	r.rng.Perm(perm)
	for _, idx := range perm {
		r.allocateVC(r.vaScratch[idx], cycle)
	}
}

// computeRoute runs the RC stage: take the flit's table line, looking it up
// if the flit carries none, and select one entry (by weight, or by
// downstream congestion when adaptive).
func (r *Router) computeRoute(st *vcState, f *Flit, cycle uint64) {
	var line *RouteLine
	if f.line != 0 {
		line = r.table.Line(f.line)
	} else {
		line = r.table.Lookup(r.prevOf(st), f.Flow)
		if line == nil || len(line.Entries) == 0 {
			panic(fmt.Sprintf("noc: router %d: no route for flow %v arriving from %d", r.ID, f.Flow, r.prevOf(st)))
		}
		f.line = line.ID
	}
	entries := line.Entries
	pick := 0
	if len(entries) > 1 {
		if len(entries) > MaxLineEntries {
			panic(fmt.Sprintf("noc: router %d: flow %v's line has %d entries, at most %d", r.ID, f.Flow, len(entries), MaxLineEntries))
		}
		if r.adaptive {
			pick = r.pickAdaptive(entries)
		} else {
			r.weights = r.weights[:0]
			for _, e := range entries {
				r.weights = append(r.weights, e.Weight)
			}
			pick = r.rng.Pick(r.weights)
		}
	}
	f.pick = uint8(pick)
	chosen := &entries[pick]
	st.routed = true
	st.routedAt = cycle
	st.flow = f.Flow
	st.next = chosen.Next
	st.nextFlow = chosen.NextFlow(f.Flow)
	st.pktID = f.Packet
	if chosen.Next == r.ID {
		st.egress = uint8(r.localPort)
		// Ejection needs no VC allocation; eligible for SA next cycle.
		st.vaDone = true
		st.vaAt = cycle
		return
	}
	eg := r.portToward(chosen.Next)
	if eg < 0 {
		panic(fmt.Sprintf("noc: router %d: route for flow %v names non-neighbour %d", r.ID, f.Flow, chosen.Next))
	}
	st.egress = uint8(eg)
}

// pickAdaptive returns the index of the entry whose egress has the most
// committed free space downstream, breaking ties pseudorandomly.
func (r *Router) pickAdaptive(entries []RouteEntry) int {
	best, bestFree, ties := 0, -1, 1
	for i, e := range entries {
		free := 0
		if e.Next == r.ID {
			free = 1 << 20 // ejection is never congested from our side
		} else if eg := r.portToward(e.Next); eg >= 0 {
			out := r.ports[eg].outState
			for vi := range out {
				free += out[vi].free(r.last)
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
	return best
}

// allocateVC runs the VA stage for one ingress VC's head packet.
func (r *Router) allocateVC(st *vcState, cycle uint64) {
	port := r.ports[st.egress]
	out := port.outState
	if out == nil {
		// Local ejection: nothing to allocate (handled in computeRoute,
		// but a route may eject via a port with no egress side).
		st.vaDone = true
		st.vaAt = cycle
		return
	}
	r.st.ArbEvents++
	if port.freeVCs == 0 {
		return // every mode passes over allocated VCs before it draws
	}
	cands := r.vcaTable.Candidates(r.prevOf(st), st.flow, st.next, st.nextFlow, len(out))
	var chosen = -1
	switch r.vcaMode {
	case VCAEDVCA:
		// Exclusive dynamic: the downstream VC must be free for
		// allocation and hold only our flow (or nothing).
		r.weights, r.vcOK = r.weights[:0], r.vcOK[:0]
		for _, c := range cands {
			ev := &out[c.VC]
			if ev.allocPacket != 0 {
				continue
			}
			if fl, res := ev.resident(r.last); res && fl != st.nextFlow {
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
			ev := &out[c.VC]
			if ev.allocPacket != 0 {
				continue
			}
			if fl, res := ev.resident(r.last); res && fl == st.nextFlow {
				chosen = c.VC
				bestFree = 1 << 30
				continue
			}
			free := ev.free(r.last)
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
			if out[c.VC].allocPacket != 0 {
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
	st.ev = &out[chosen]
	st.ev.allocPacket = st.pktID
	st.ev.allocFlow = st.nextFlow
	port.freeVCs--
}

// arbitrateAndTraverse runs SA and ST: for each egress port, in
// randomized order, pick among eligible ingress VCs (randomized) up to the
// link bandwidth, honouring one-flit-per-ingress-port-per-cycle crossbar
// constraints, then move winners.
//
// Eligibility was decided once per occupied VC, into per-egress buckets,
// by the pass, which filled at least one. A traversal in one round changes
// only the state of its ingress port, which ingressUsed then excludes, and
// the credits of its own egress, which that round had already read — so
// each round sees exactly what a fresh scan at that point would.
func (r *Router) arbitrateAndTraverse(cycle uint64) {
	eperm := r.egressPerm
	r.rng.Perm(eperm)
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
			if ingressUsed&(1<<st.port) == 0 {
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
			if ingressUsed&(1<<st.port) != 0 {
				continue
			}
			r.traverse(st, cycle)
			ingressUsed |= 1 << st.port
			budget--
		}
	}
}

// traverse runs the ST stage for one winning flit: account its residency
// latency in this router, write it straight into the downstream tail slot
// (one link cycle) or deliver it locally, and free its ingress slot.
func (r *Router) traverse(st *vcState, cycle uint64) {
	f := st.buf.headSlot()
	r.st.BufReads++
	r.st.BufWrites++ // ingress write modeled at pop time (same tile, same count)
	r.st.XbarTransits++
	// Residency in this router, measured in the local clock domain: the
	// arrival stamp is local; VisibleAt (producer clock + 1 link cycle)
	// only tightens it when the producer ran ahead within a sync chunk.
	arrival := r.popStamp(st, cycle)
	if f.VisibleAt > arrival {
		arrival = f.VisibleAt
	}
	latency := f.Latency + cycle - arrival
	tail := f.Kind.IsTail()
	var payload any
	if f.Kind.IsHead() {
		payload = st.buf.takePayload()
	}
	// The routing table's flow renaming applies on the way out (two-phase
	// schemes rename at the intermediate hop; datelines rename at the wrap
	// crossing).
	if ev := st.ev; ev == nil {
		// Ejection to the local CPU port.
		f.Latency = latency
		f.Flow = st.nextFlow
		r.deliver(f, payload, cycle)
	} else {
		out := ev.buf.tailSlot()
		if out == nil {
			panic(fmt.Sprintf("noc: router %d: downstream push without credit (port %d vc %d)", r.ID, st.egress, ev.vc))
		}
		*out = *f
		out.line = r.lineAfter(f)
		out.Flow = st.nextFlow
		out.Latency = latency + 1 // link traversal
		out.Hops++
		out.VisibleAt = cycle + 1
		if payload != nil {
			ev.buf.setPayload(ev.buf.tail, payload)
		}
		ev.buf.publish()
		ev.pushes++
		ev.lastFlow = st.nextFlow
		r.st.LinkTransits++
		if tail {
			ev.allocPacket = 0
			r.ports[st.egress].freeVCs++
		}
	}
	st.buf.advance()
	// The next flit, if the pass has seen one, sits in the slot after the
	// one just read: describe it now, while that memory is near.
	if st.sCount > 0 {
		st.readHead()
	} else {
		st.headVis = headStale
	}
	r.popped = append(r.popped, st.buf.commitOf())
	if tail {
		st.reset()
	}
}

// lineAfter returns the number of the line f's next router routes it by:
// the linked line of the entry RC chose, or 0 if there is none.
func (r *Router) lineAfter(f *Flit) uint32 {
	if f.line == 0 {
		return 0
	}
	if then := r.table.Line(f.line).Entries[f.pick].Then; then != nil {
		return then.ID
	}
	return 0
}

// deliver ejects a flit at its destination, folds its statistics and
// reassembles packets for the local receiver. f is the flit's ingress
// slot, still the router's until the buffer advances, and payload what its
// payload-ring entry held.
func (r *Router) deliver(f *Flit, payload any, cycle uint64) {
	if f.Flow.Dst() != r.ID {
		panic(fmt.Sprintf("noc: flit for %d ejected at %d (flow %v)", f.Flow.Dst(), r.ID, f.Flow))
	}
	r.st.FlitsDelivered++
	r.st.FlitLatencySum += f.Latency
	r.st.HopSum += uint64(f.Hops)
	r.inflight.Add(-1)
	switch f.Kind {
	case Head:
		r.assembly = slices.Insert(r.assembly, r.assemblyAt(f.Packet), assembling{head: *f, payload: payload})
		return
	case Body:
		return
	}
	// Tail or HeadTail: the packet is complete.
	headInj := f.HeadInjectedAt
	if f.Kind == Tail {
		if i := r.assemblyAt(f.Packet); i < len(r.assembly) && r.assembly[i].head.Packet == f.Packet {
			payload = r.assembly[i].payload
			headInj = r.assembly[i].head.InjectedAt
			r.assembly = slices.Delete(r.assembly, i, i+1)
		}
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
			Src:     f.Flow.Src(),
			Dst:     f.Flow.Dst(),
			Flits:   int(f.Len),
			FlowSeq: f.FlowSeq,
			Payload: payload,
			Latency: pktLat,
		}, cycle)
	}
}

// assemblyAt returns where packet id is, or belongs, in the reassembly
// list.
func (r *Router) assemblyAt(id uint64) int {
	i := 0
	for i < len(r.assembly) && r.assembly[i].head.Packet < id {
		i++
	}
	return i
}

// reportLinkDemand publishes, for each bidirectional link, how many
// SA-eligible flits want to cross it after this cycle (the arbiters read
// it next cycle): VA done and head visible, counted over every ingress
// record, so that a parked VC counts as one visited every cycle does. It
// reads the buffers as this cycle's traversals left them.
func (r *Router) reportLinkDemand(cycle uint64) {
	clear(r.demand)
	for i := range r.vcs {
		if st := &r.vcs[i]; st.vaDone {
			if _, ok := st.buf.Peek(cycle); ok {
				r.demand[st.egress]++
			}
		}
	}
	for ei, eg := range r.ports {
		if eg.Link != nil && eg.Out != nil {
			eg.Link.ReportDemand(eg.Side, cycle, r.demand[ei])
		}
	}
}
