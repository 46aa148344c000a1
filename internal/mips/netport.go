package mips

import (
	"hornet/internal/noc"
)

// ClassUser tags MPI-style application packets on the network.
const ClassUser uint8 = 4

// MaxSendBytes is the longest message one net_send carries: a packet of a
// header flit and 8 bytes per flit after it, at most noc.MaxPacketFlits
// flits long.
const MaxSendBytes = (noc.MaxPacketFlits - 1) * 8

// NetPort is the core-side network interface (paper §II-D2): sends are
// DMA-like — the syscall captures the buffer and returns while the port
// streams packets into the network — and receives are assembled into
// per-source FIFO queues the program polls. Backpressure is modeled by a
// bounded DMA queue on top of the router's bounded injector window, so a
// sender eventually stalls when its destination stops draining (the
// feedback loop trace-driven simulation lacks, Fig 12).
type NetPort struct {
	node       noc.NodeID
	offer      func(noc.Packet)
	routerLoad func() int // router injector queue length
	maxPending int        // DMA queue bound
	maxRouterQ int        // injector-queue bound before DMA stalls

	sendQ []noc.Packet
	recvQ []recvPkt

	Sent     uint64
	Received uint64
}

type recvPkt struct {
	src  noc.NodeID
	data []byte
}

// NewNetPort builds a port. offer injects packets at this tile;
// routerLoad reports the router's injector queue length.
func NewNetPort(node noc.NodeID, offer func(noc.Packet), routerLoad func() int) *NetPort {
	return &NetPort{
		node:       node,
		offer:      offer,
		routerLoad: routerLoad,
		maxPending: 4,
		maxRouterQ: 2,
	}
}

// TrySend queues a message for DMA transmission; it reports false when
// the DMA queue is full (the syscall then stalls the core and retries).
func (np *NetPort) TrySend(dst noc.NodeID, data []byte) bool {
	if len(np.sendQ) >= np.maxPending {
		return false
	}
	payload := append([]byte(nil), data...)
	np.sendQ = append(np.sendQ, noc.Packet{
		Flow:    noc.MakeFlow(np.node, dst, ClassUser),
		Dst:     dst,
		Flits:   1 + (len(payload)+7)/8,
		Payload: payload,
	})
	return true
}

// Tick advances the DMA engine: at most one packet moves into the router
// injector per cycle, and only while the injector queue is short.
func (np *NetPort) Tick(cycle uint64) {
	if len(np.sendQ) == 0 || np.routerLoad() >= np.maxRouterQ {
		return
	}
	np.offer(np.sendQ[0])
	copy(np.sendQ, np.sendQ[1:])
	np.sendQ = np.sendQ[:len(np.sendQ)-1]
	np.Sent++
}

// ReceivePacket implements the router delivery callback for user packets.
func (np *NetPort) ReceivePacket(p noc.Packet, cycle uint64) {
	data, _ := p.Payload.([]byte)
	np.recvQ = append(np.recvQ, recvPkt{src: p.Src, data: data})
	np.Received++
}

// Poll returns the source of the oldest waiting packet, or false.
func (np *NetPort) Poll() (noc.NodeID, bool) {
	if len(np.recvQ) == 0 {
		return 0, false
	}
	return np.recvQ[0].src, true
}

// Recv dequeues the oldest packet from src (or from anyone if src < 0).
func (np *NetPort) Recv(src noc.NodeID) ([]byte, bool) {
	for i, r := range np.recvQ {
		if src >= 0 && r.src != src {
			continue
		}
		np.recvQ = append(np.recvQ[:i], np.recvQ[i+1:]...)
		return r.data, true
	}
	return nil, false
}

// Idle reports whether the DMA engine has nothing queued.
func (np *NetPort) Idle() bool { return len(np.sendQ) == 0 }
