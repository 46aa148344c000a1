// Package noc implements HORNET's cycle-level network-on-chip model: an
// ingress-queued wormhole virtual-channel router with table-driven route
// computation (RC), virtual-channel allocation (VA), randomized switch
// arbitration (SA) and switch traversal (ST); lock-free single-producer/
// single-consumer VC buffers that are the only inter-thread communication
// points; and bandwidth-adaptive bidirectional links (paper §II-A).
//
// The model is laid out for the host's caches, because at a thousand tiles
// the router state is far larger than they are and most occupied VCs in a
// loaded mesh are merely blocked. A router's ingress VCs are one array of
// 128-byte records (vcState), each holding its buffer's header, with the
// flit slots and arrival stamps of all its buffers in one slab each, all
// allocated by NewRouter: a slot is one 64-byte flit (see Flit) and an
// 8-byte stamp. What decides whether a VC may move — occupancy,
// a cached descriptor of its head flit, its allocation state and the
// pointer to its downstream VC — is in the record's first line. The credit
// that downstream VC has left is kept where it is read: a buffer's Commit
// stores its committed pops into the producer's egress record
// (egressVC.credit, one cache line per downstream VC), not into its own
// header. Flits move slot to slot, one 64-byte copy per hop, carrying the
// number of the table line their next router routes them by
// (RouteEntry.Then); what a slot does not hold — a protocol payload, on a
// packet's head flit only — moves beside it, from the payload ring of one
// buffer to that of the next (VCBuffer), and only protocol traffic ever
// allocates a ring.
//
// A router's work in a cycle is proportional to what can make progress in
// it. Each router has an occupancy mask, one bit per ingress VC, and visits
// only the records whose bits are set. The producer of a buffer sets the bit
// when it pushes into it; the router clears it when it pops the buffer's
// last flit — and when it finds the VC's head flit ready to move but for a
// credit: it then arms a waiter in that credit's cell and parks the VC, and
// the downstream buffer's next credit publication sets the bit again
// (VCBuffer has the protocol). So an empty VC costs nothing, a VC blocked on
// credit costs one visit when it blocks and one when the credit returns, and
// a flit in flight costs a visit per cycle only while something about it can
// change. PhaseTransfer enters the injection, VA and SA stages only when they
// have input, and draws the egress permutation only when there is something
// to arbitrate; otherwise it steps its generator past the draws
// (sim.RNG.Skip — a permutation over n ports is exactly n-1 draws), so the
// stream position, and with it every digest and snapshot byte, is what it
// was when every router visited every VC and drew every cycle. A router with
// no bit set — nothing resident, or everything resident parked — and nothing
// to inject costs a load of its mask and that skip, and has no negative
// edge.
//
// Besides its flits, a packet costs a router little. Queued at its source
// it is an 8-byte record (pendingPacket): its ID, endpoints and latency are
// derived, and its flow sequence number is handed out when it starts
// streaming in. Streaming in, it is its head flit and the injection cycle
// of each flit pushed so far; the other flits are built from the head as
// they are pushed. A source keeps per flow the count of packets started and
// the flow's first-hop line, which each head flit carries, so the routing
// table is asked once per flow. At its destination, a packet whose head has
// been delivered and whose tail has not is an entry of a short list of head
// flits and payloads, at most one per ingress VC.
//
// None of this is serialized: a restore rebuilds the pointers and the mask,
// re-reads the heads, and its first pass parks what is blocked; its flits
// carry no lines, and its sources look their flows' first-hop lines up
// again. The snapshot codec writes each flit as it always has, endpoints
// and payload included, taking the endpoints from the flow and the payload
// from the ring, and each queued and streaming packet as a router that
// numbered packets as they were offered wrote it.
package noc

import (
	"fmt"
	"math"
)

// NodeID identifies a node (tile) in the interconnect.
type NodeID int32

// InvalidNode marks "no node" (e.g. the neighbor of a local port).
const InvalidNode NodeID = -1

// FlowID identifies a traffic flow. The encoding packs source,
// destination, a traffic class, and a phase bit used by two-phase routing
// schemes (Valiant/ROMM) and dateline VC switching, so that
// function-backed routing tables can recover the endpoints without a side
// lookup:
//
//	bit 31    : phase (set after the intermediate hop / dateline crossing)
//	bits 28-30: class (0 = synthetic, others used by memory traffic)
//	bits 14-27: source node
//	bits 0-13 : destination node
type FlowID uint32

// MaxNodes is the largest node count representable in a FlowID.
const MaxNodes = 1 << 14

const (
	flowPhaseBit  FlowID = 1 << 31
	flowClassMask FlowID = 0x7 << 28
)

// MakeFlow builds a FlowID from src, dst and class. It panics if either
// node is out of range, since silently truncating IDs would corrupt routes.
func MakeFlow(src, dst NodeID, class uint8) FlowID {
	if src < 0 || src >= MaxNodes || dst < 0 || dst >= MaxNodes {
		panic(fmt.Sprintf("noc: flow endpoints out of range: src=%d dst=%d", src, dst))
	}
	return FlowID(class&0x7)<<28 | FlowID(src)<<14 | FlowID(dst)
}

// Src returns the flow's source node.
func (f FlowID) Src() NodeID { return NodeID(f >> 14 & 0x3FFF) }

// Dst returns the flow's destination node.
func (f FlowID) Dst() NodeID { return NodeID(f & 0x3FFF) }

// Class returns the flow's traffic class.
func (f FlowID) Class() uint8 { return uint8(f >> 28 & 0x7) }

// Phase2 reports whether the phase bit is set (packet past its
// intermediate hop, or past the dateline).
func (f FlowID) Phase2() bool { return f&flowPhaseBit != 0 }

// WithPhase2 returns the flow renamed into its second phase.
func (f FlowID) WithPhase2() FlowID { return f | flowPhaseBit }

// Base returns the flow with the phase bit cleared (the original flow ID,
// as restored at the destination per the paper's renaming scheme).
func (f FlowID) Base() FlowID { return f &^ flowPhaseBit }

func (f FlowID) String() string {
	p := ""
	if f.Phase2() {
		p = "'"
	}
	return fmt.Sprintf("f%d:%d->%d%s", f.Class(), f.Src(), f.Dst(), p)
}

// Kind distinguishes flit positions within a packet.
type Kind uint8

const (
	// Head is the first flit of a multi-flit packet.
	Head Kind = iota
	// Body is a middle flit.
	Body
	// Tail is the last flit of a multi-flit packet.
	Tail
	// HeadTail is the only flit of a single-flit packet.
	HeadTail
)

func (k Kind) String() string {
	switch k {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "headtail"
	}
	return "?"
}

// IsHead reports whether the flit opens a packet (Head or HeadTail).
func (k Kind) IsHead() bool { return k == Head || k == HeadTail }

// IsTail reports whether the flit closes a packet (Tail or HeadTail).
func (k Kind) IsTail() bool { return k == Tail || k == HeadTail }

// Flit is the unit of network transfer. Flits are passed by value through
// VC buffers; statistics (Latency, Hops) travel inside the flit and are
// updated incrementally within single clock domains, which is what keeps
// measurements accurate under loose synchronization (paper §II-C).
//
// A flit is one 64-byte cache line (TestFlitLayout): a buffer slot, and
// what a hop copies, holds only what cannot be derived. Its endpoints are
// its flow's (Flow.Src, Flow.Dst: renaming only flips the phase bit, and
// OfferPacket takes no other packet). A protocol payload, which only a head
// flit carries and no router between source and destination reads, waits
// beside the slot in its buffer's payload ring (VCBuffer.setPayload); the
// snapshot codec (saveFlit) writes endpoints and payload where the wider flit had
// them, so the encoding is unchanged.
//
// line and pick are host-only and never serialized (see RouteEntry.Then):
// line is the number of the table line the holding router routes the flit
// by (RouteLine.ID, 0: look it up), pick the entry RC chose in it.
type Flit struct {
	Kind Kind
	pick uint8
	Hops uint16
	Flow FlowID
	// Packet is a globally unique packet ID (used for wormhole VC
	// allocation bookkeeping); Seq is the flit index within the packet.
	Packet uint64
	Seq    uint16
	Len    uint16 // packet length in flits
	line   uint32
	// FlowSeq is the per-flow packet sequence number assigned at the
	// source, used to detect reordering (EDVCA's in-order guarantee).
	FlowSeq uint64
	// InjectedAt is the source-clock cycle the flit entered the network;
	// HeadInjectedAt is the same for the packet's head flit (carried on
	// every flit so packet latency needs only same-domain arithmetic).
	InjectedAt     uint64
	HeadInjectedAt uint64
	// VisibleAt is the cycle at which the flit becomes observable in the
	// buffer it currently occupies (sender cycle + 1: one link cycle).
	VisibleAt uint64
	// Latency accumulates in-network cycles hop by hop.
	Latency uint64
}

// MaxLineEntries is the most entries a line a flit is routed by may have:
// Flit.pick names one in a byte. A line holds one entry per distinct next
// hop and phase, so any table whose hops are neighbours stays far below it
// (a router has at most 64 ports); config.CheckStaticPaths holds explicit
// routes to it.
const MaxLineEntries = 1 << 8

func (f Flit) String() string {
	return fmt.Sprintf("%s %s pkt=%d seq=%d/%d", f.Kind, f.Flow, f.Packet, f.Seq, f.Len)
}

// MaxPacketFlits is the longest packet a source may offer: a flit names its
// position and its packet's length in 16 bits (Flit.Seq, Flit.Len).
const MaxPacketFlits = math.MaxUint16

// Packet is the bridge-level unit: what traffic generators offer and what
// receivers get after flit reassembly (paper §II-D's "common bridge
// abstraction ... hiding the details of dividing the packets into flits").
type Packet struct {
	ID      uint64
	Flow    FlowID
	Src     NodeID
	Dst     NodeID
	Flits   int
	FlowSeq uint64
	Payload any
	// Latency is filled in on delivery: head-injection to tail-delivery.
	Latency uint64
}
