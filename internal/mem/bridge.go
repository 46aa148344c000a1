package mem

import (
	"fmt"

	"hornet/internal/noc"
)

// Bridge is one tile's protocol endpoint: it converts messages to packets
// (and back), implementing the paper's "common bridge abstraction" that
// hides packetization from cores and controllers. Messages to the local
// tile bypass the network with a one-cycle latency, as a real switch's
// local port loopback would.
type Bridge struct {
	node  noc.NodeID
	offer func(noc.Packet)
	cycle uint64
	pool  msgPool

	L1   *L1
	Dir  *Directory
	MC   *Controller
	Nuca *NucaPort
}

// NewBridge builds a bridge; offer is the router injection callback.
func NewBridge(node noc.NodeID, offer func(noc.Packet)) *Bridge {
	return &Bridge{node: node, offer: offer}
}

// BeginCycle must be called once per simulated cycle before the
// components tick, so local sends are stamped correctly.
func (b *Bridge) BeginCycle(cycle uint64) { b.cycle = cycle }

// Tick is the tile's memory side for one cycle, called before its core:
// directory slice, controller, cache (an empty inbox returns at once).
func (b *Bridge) Tick(cycle uint64) {
	b.cycle = cycle
	if b.Dir != nil {
		b.Dir.Tick(cycle)
	}
	if b.MC != nil {
		b.MC.Tick(cycle)
	}
	if b.L1 != nil {
		b.L1.Tick(cycle)
	}
}

// send transmits v in a message from the tile's free list (v.Data is
// copied); whoever consumes it recycles it. The flow is stamped (src=this
// tile, dst, class).
func (b *Bridge) send(dst noc.NodeID, class uint8, v Message) {
	m := b.pool.get(v)
	if dst == b.node {
		b.dispatch(m, class, b.node, b.cycle)
		return
	}
	b.offer(noc.Packet{
		Flow:    noc.MakeFlow(b.node, dst, class),
		Dst:     dst,
		Flits:   flitsFor(m),
		Payload: m,
	})
}

// ReceivePacket implements noc.Receiver for protocol traffic.
func (b *Bridge) ReceivePacket(p noc.Packet, cycle uint64) {
	m, ok := p.Payload.(*Message)
	if !ok {
		return // synthetic traffic sharing the tile; not for us
	}
	b.dispatch(m, p.Flow.Class(), p.Src, cycle)
}

func (b *Bridge) dispatch(m *Message, class uint8, src noc.NodeID, cycle uint64) {
	switch m.Type {
	case MsgGetS, MsgGetM, MsgPutM, MsgNucaRead, MsgNucaWrite, MsgMemData:
		if b.Dir == nil {
			panic(fmt.Sprintf("mem: tile %d got %v without a directory slice", b.node, m.Type))
		}
		b.Dir.Deliver(m, src, cycle)
	case MsgMemRead, MsgMemWrite:
		if b.MC == nil {
			panic(fmt.Sprintf("mem: tile %d got %v without a memory controller", b.node, m.Type))
		}
		b.MC.Deliver(m, src, cycle)
	case MsgNucaResp:
		if b.Nuca == nil {
			panic(fmt.Sprintf("mem: tile %d got NucaResp without a NUCA port", b.node))
		}
		b.Nuca.deliver(m, cycle)
	case MsgPutAck:
		// Class disambiguates: requests go to the directory (owner
		// completing a forward), responses to the cache.
		if class == ClassRequest {
			b.Dir.Deliver(m, src, cycle)
		} else if b.L1 != nil {
			b.L1.Deliver(m, src, cycle)
		}
	case MsgData, MsgInv, MsgInvAck, MsgFwdGetS, MsgFwdGetM:
		if b.L1 == nil {
			panic(fmt.Sprintf("mem: tile %d got %v without an L1", b.node, m.Type))
		}
		b.L1.Deliver(m, src, cycle)
	default:
		panic(fmt.Sprintf("mem: tile %d cannot dispatch %v", b.node, m.Type))
	}
}

// NucaPort is the processor-side memory port in NUCA mode: every access
// goes to the line's home slice (local slices answer through the bridge's
// loopback), with no local caching of remote data (paper §II-D2).
type NucaPort struct {
	node   noc.NodeID
	am     *AddressMap
	bridge *Bridge

	busy bool // pend holds an access in progress
	pend nucaPending

	Stats L1Stats // reuse counter block: Loads/Stores/StallCycles
}

type nucaPending struct {
	write bool
	addr  uint32
	size  int
	wdata uint64
	done  bool
	rdata uint64
}

// NewNucaPort builds the port.
func NewNucaPort(node noc.NodeID, am *AddressMap, bridge *Bridge) *NucaPort {
	return &NucaPort{node: node, am: am, bridge: bridge}
}

// Access implements mips.DataMem.
func (n *NucaPort) Access(cycle uint64, write bool, addr uint32, size int, wdata uint64) (uint64, bool) {
	if !n.busy {
		if write {
			n.Stats.Stores++
		} else {
			n.Stats.Loads++
		}
		n.busy = true
		n.pend = nucaPending{write: write, addr: addr, size: size, wdata: wdata}
		m := Message{
			Type:      MsgNucaRead,
			Addr:      n.am.LineAddr(addr),
			Requester: n.node,
			Off:       uint8(n.am.LineOffset(addr)),
			Len:       uint8(size),
		}
		if write {
			var store [8]byte
			m.Type = MsgNucaWrite
			m.Data = store[:size]
			putUint(m.Data, wdata)
		}
		n.bridge.send(n.am.Home(addr), ClassRequest, m)
		n.Stats.StallCycles++
		return 0, false
	}
	if !n.pend.done {
		n.Stats.StallCycles++
		return 0, false
	}
	n.busy = false
	return n.pend.rdata, true
}

// deliver takes the home slice's response (straight from dispatch: the
// message is done with on return).
func (n *NucaPort) deliver(m *Message, cycle uint64) {
	if p := &n.pend; n.busy && n.am.LineAddr(p.addr) == m.Addr {
		p.done = true
		if !p.write && len(m.Data) > 0 {
			p.rdata = getUint(m.Data)
		}
	}
	n.bridge.pool.put(m)
}
