package mem

import (
	"hornet/internal/noc"
)

// Controller models one memory controller: a bounded-parallelism service
// queue with fixed DRAM latency. Directories send it MsgMemRead /
// MsgMemWrite over the network; reads produce MsgMemData responses. The
// queue-depth bound limits requests in service concurrently; arrivals
// beyond it wait, which is what concentrates congestion around controller
// tiles (paper §IV-C, Fig 11).
type Controller struct {
	node       noc.NodeID
	latency    uint64
	queueDepth int
	bridge     *Bridge

	inbox   []inboundMsg
	service []serviceSlot

	Requests  uint64
	Reads     uint64
	Writes    uint64
	MaxQueued int
}

type serviceSlot struct {
	m       *Message
	readyAt uint64
}

// NewController builds a controller component for a tile.
func NewController(node noc.NodeID, latency, queueDepth int, bridge *Bridge) *Controller {
	if latency < 1 {
		latency = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	return &Controller{node: node, latency: uint64(latency), queueDepth: queueDepth, bridge: bridge}
}

// Deliver queues a message (bridge callback).
func (c *Controller) Deliver(m *Message, src noc.NodeID, cycle uint64) {
	c.inbox = append(c.inbox, inboundMsg{m: m, src: src, availAt: cycle + 1})
	if q := len(c.inbox) + len(c.service); q > c.MaxQueued {
		c.MaxQueued = q
	}
}

// Tick admits requests into service (up to the depth bound, one per
// cycle) and completes finished ones.
func (c *Controller) Tick(cycle uint64) {
	if len(c.inbox) == 0 && len(c.service) == 0 {
		return
	}
	// Complete finished requests.
	kept := c.service[:0]
	for _, s := range c.service {
		if s.readyAt > cycle {
			kept = append(kept, s)
			continue
		}
		if s.m.Type == MsgMemRead {
			c.bridge.send(s.m.Requester, ClassMemory, Message{Type: MsgMemData, Addr: s.m.Addr})
		}
		c.bridge.pool.put(s.m)
	}
	c.service = kept
	// Admit one new request per cycle if a slot is free.
	if len(c.service) < c.queueDepth {
		for i, im := range c.inbox {
			if im.availAt > cycle {
				continue
			}
			c.Requests++
			if im.m.Type == MsgMemRead {
				c.Reads++
			} else {
				c.Writes++
			}
			c.service = append(c.service, serviceSlot{m: im.m, readyAt: cycle + c.latency})
			c.inbox = append(c.inbox[:i], c.inbox[i+1:]...)
			break
		}
	}
}

// TraceController is the network-only memory controller used by
// trace-driven Fig 11 runs: it receives raw request packets (class
// ClassRequest, no protocol payload) and answers each with a data-sized
// response packet after the DRAM latency.
type TraceController struct {
	node          noc.NodeID
	latency       uint64
	responseFlits int
	offer         func(noc.Packet)

	pending []tracePending
	Served  uint64
}

type tracePending struct {
	requester noc.NodeID
	readyAt   uint64
}

// NewTraceController builds the trace-mode controller; offer injects
// response packets at this tile (wired by the system builder).
func NewTraceController(node noc.NodeID, latency, responseFlits int) *TraceController {
	if latency < 1 {
		latency = 1
	}
	if responseFlits < 1 {
		responseFlits = 8
	}
	return &TraceController{node: node, latency: uint64(latency), responseFlits: responseFlits}
}

// Bind installs the injection callback (router OfferPacket).
func (tc *TraceController) Bind(offer func(noc.Packet)) { tc.offer = offer }

// ReceivePacket accepts a request packet (router Receiver path).
func (tc *TraceController) ReceivePacket(p noc.Packet, cycle uint64) {
	tc.pending = append(tc.pending, tracePending{requester: p.Src, readyAt: cycle + tc.latency})
}

// Tick emits one ready response per cycle.
func (tc *TraceController) Tick(cycle uint64, _ func(noc.Packet)) {
	for i, pe := range tc.pending {
		if pe.readyAt > cycle {
			continue
		}
		tc.offer(noc.Packet{
			Flow:  noc.MakeFlow(tc.node, pe.requester, ClassResponse),
			Dst:   pe.requester,
			Flits: tc.responseFlits,
		})
		tc.Served++
		tc.pending = append(tc.pending[:i], tc.pending[i+1:]...)
		return
	}
}

// NextEvent implements the fast-forward query.
func (tc *TraceController) NextEvent(now uint64) uint64 {
	if len(tc.pending) == 0 {
		return ^uint64(0)
	}
	earliest := tc.pending[0].readyAt
	for _, pe := range tc.pending[1:] {
		if pe.readyAt < earliest {
			earliest = pe.readyAt
		}
	}
	if earliest <= now {
		return now + 1
	}
	return earliest
}
