package mem

import (
	"fmt"
	"math/bits"

	"hornet/internal/noc"
)

// Directory is one tile's slice of the MSI directory (and, in NUCA mode,
// the home slice serving remote reads and stores). Lines are interleaved
// across tiles by AddressMap.Home. The slice owns the authoritative data
// for its lines in a Store; memory-controller traffic (MsgMemRead on
// first touch, MsgMemWrite on write-back) models the off-chip timing and
// congestion while the data itself stays in the slice — a simplification:
// off-chip memory holds no second copy of the data.
type Directory struct {
	node   noc.NodeID
	am     *AddressMap
	bridge *Bridge
	store  *Store

	lines []dirLine    // protocol state, by the line's store slot
	inbox []inboundMsg // Tick swaps it with spare
	spare []inboundMsg

	// Stats.
	Requests   uint64
	MemFetches uint64
	MemWrites  uint64
	Forwards   uint64
	NucaOps    uint64
}

// dirLine is a line's protocol state; the zero value is a line nobody has
// touched.
type dirLine struct {
	state  byte // stInvalid (memory only), stShared, stModified
	cached bool // data has been fetched on-chip at least once
	busy   bool // transaction in flight (MC fetch or forward)
	owner  noc.NodeID
	// sharers is a bitset over nodes, made at the line's first sharer.
	// Walking it upwards is ascending node order, the order invalidations
	// are injected in: any other order would change the simulation.
	sharers []uint64

	cur     *Message   // request being serviced
	waiting []*Message // queued requests for this line
}

func (l *dirLine) addSharer(n noc.NodeID, nodes int) {
	if l.sharers == nil {
		l.sharers = make([]uint64, (nodes+63)/64)
	}
	l.sharers[n>>6] |= 1 << (n & 63)
}

// eachSharer calls visit for every sharer in ascending node order.
func (l *dirLine) eachSharer(visit func(noc.NodeID)) {
	for w, set := range l.sharers {
		for ; set != 0; set &= set - 1 {
			visit(noc.NodeID(w<<6 + bits.TrailingZeros64(set)))
		}
	}
}

func (l *dirLine) sharerCount() (n int) {
	for _, set := range l.sharers {
		n += bits.OnesCount64(set)
	}
	return n
}

// NewDirectory builds the slice for one tile.
func NewDirectory(node noc.NodeID, am *AddressMap, bridge *Bridge) *Directory {
	return &Directory{
		node:   node,
		am:     am,
		bridge: bridge,
		store:  NewStore(am.LineBytes),
	}
}

// Store exposes the slice's backing store (program preloading).
func (d *Directory) Store() *Store { return d.store }

// Deliver queues a message (bridge callback).
func (d *Directory) Deliver(m *Message, src noc.NodeID, cycle uint64) {
	d.inbox = append(d.inbox, inboundMsg{m: m, src: src, availAt: cycle + 1})
}

// Tick processes inbound messages, one line-transaction step per message.
// The batch is set aside first and the inbox continues in the other
// buffer: handling can deliver new local messages (bridge loopback).
func (d *Directory) Tick(cycle uint64) {
	if len(d.inbox) == 0 {
		return
	}
	batch := d.inbox
	d.inbox = d.spare[:0]
	for _, im := range batch {
		if im.availAt > cycle {
			d.inbox = append(d.inbox, im)
			continue
		}
		d.handle(im.m)
	}
	d.spare = batch[:0]
}

// line returns the protocol state and the bytes of the line containing
// addr: one index probe finds both. The state pointer holds until the next
// call for a line not seen before.
func (d *Directory) line(addr uint32) (*dirLine, []byte) {
	slot := d.store.slot(addr)
	for len(d.lines) <= slot {
		d.lines = append(d.lines, dirLine{})
	}
	return &d.lines[slot], d.store.lines[slot]
}

// handle processes one message and recycles it unless it parked (as the
// line's current or a waiting request); a parked request is recycled by
// whatever answers it.
func (d *Directory) handle(m *Message) {
	if d.am.Home(m.Addr) != d.node && m.Type != MsgMemData {
		panic(fmt.Sprintf("mem: directory %d got message for line homed at %d", d.node, d.am.Home(m.Addr)))
	}
	d.Requests++
	l, data := d.line(m.Addr)
	switch m.Type {
	case MsgGetS, MsgGetM:
		if l.busy {
			l.waiting = append(l.waiting, m)
		} else {
			d.dispatch(l, data, m)
		}
		return
	case MsgNucaRead, MsgNucaWrite:
		d.dispatch(l, data, m)
		return
	case MsgPutM:
		d.handlePutM(l, data, m)
	case MsgPutAck:
		// Owner finished a FwdGetM hand-off.
		if l.busy && l.cur != nil && l.cur.Type == MsgGetM {
			l.owner = l.cur.Requester
			l.state = stModified
			d.finish(l, data)
		}
	case MsgMemData:
		d.handleMemData(l, data)
	default:
		panic(fmt.Sprintf("mem: directory got unexpected message %v", m.Type))
	}
	d.bridge.pool.put(m)
}

// fetch parks m as the line's transaction in flight until the controller
// answers with MsgMemData.
func (d *Directory) fetch(l *dirLine, m *Message) {
	l.busy, l.cur = true, m
	d.MemFetches++
	d.bridge.send(d.am.Controller(m.Addr), ClassMemory, Message{
		Type: MsgMemRead, Addr: d.am.LineAddr(m.Addr), Requester: d.node,
	})
}

// forward parks m until the line's owner, sent t, has handed the line on.
func (d *Directory) forward(l *dirLine, t MsgType, m *Message) {
	l.busy, l.cur = true, m
	d.Forwards++
	d.toCache(l.owner, t, m)
}

// toCache sends a cache a forward or an invalidation on m's behalf.
func (d *Directory) toCache(to noc.NodeID, t MsgType, m *Message) {
	d.bridge.send(to, ClassResponse, Message{
		Type: t, Addr: d.am.LineAddr(m.Addr), Requester: m.Requester, Txn: m.Txn,
	})
}

// service handles a GetS/GetM on an idle line; it reports false when the
// request parked instead of being answered.
func (d *Directory) service(l *dirLine, data []byte, m *Message) bool {
	switch {
	case !l.cached: // first touch
		d.fetch(l, m)
		return false
	case m.Type == MsgGetS && l.state != stModified:
		l.addSharer(m.Requester, d.am.Nodes)
		l.state = stShared
		d.respondData(m, data, 0)
	case m.Type == MsgGetS:
		d.forward(l, MsgFwdGetS, m)
		return false
	case l.state == stModified && l.owner != m.Requester:
		d.forward(l, MsgFwdGetM, m)
		return false
	case l.state == stModified:
		// Owner re-requesting (lost line mid-transaction): re-grant.
		d.respondData(m, data, 0)
	default: // GetM on I or S
		acks := 0
		l.eachSharer(func(s noc.NodeID) {
			if s != m.Requester {
				acks++
				d.toCache(s, MsgInv, m)
			}
		})
		clear(l.sharers)
		l.state = stModified
		l.owner = m.Requester
		d.respondData(m, data, acks)
	}
	return true
}

// respondData answers req with the line's current data, echoing the
// request's transaction number.
func (d *Directory) respondData(req *Message, data []byte, acks int) {
	d.bridge.send(req.Requester, ClassResponse, Message{
		Type: MsgData, Addr: d.am.LineAddr(req.Addr), Data: data, AckCount: acks, Txn: req.Txn,
	})
}

// handlePutM folds a write-back (eviction or forward completion).
func (d *Directory) handlePutM(l *dirLine, data []byte, m *Message) {
	copy(data, m.Data)
	d.MemWrites++
	d.bridge.send(d.am.Controller(m.Addr), ClassMemory, Message{
		Type: MsgMemWrite, Addr: d.am.LineAddr(m.Addr), Requester: d.node,
	})
	if l.busy && l.cur != nil {
		// The PutM completes an in-flight forward: answer the parked
		// requester directly (covers the owner-evicted race).
		req := l.cur
		switch req.Type {
		case MsgGetS:
			l.state = stShared
			l.addSharer(m.Requester, d.am.Nodes) // previous owner keeps S
			l.addSharer(req.Requester, d.am.Nodes)
			d.respondData(req, data, 0)
		case MsgGetM:
			l.state = stModified
			l.owner = req.Requester
			d.respondData(req, data, 0)
		}
		d.finish(l, data)
		return
	}
	if l.state == stModified && l.owner == m.Requester {
		l.state = stInvalid
		l.cached = true
	}
}

// handleMemData resumes the request that waited on an off-chip fetch.
func (d *Directory) handleMemData(l *dirLine, data []byte) {
	if !l.busy || l.cur == nil {
		return
	}
	l.cached = true
	req := l.cur
	l.busy = false
	l.cur = nil
	d.dispatch(l, data, req)
	if !l.busy {
		d.drainWaiting(l, data)
	}
}

// dispatch routes a (possibly parked) request to its handler and recycles
// it once answered.
func (d *Directory) dispatch(l *dirLine, data []byte, m *Message) {
	done := false
	if m.Type == MsgNucaRead || m.Type == MsgNucaWrite {
		done = d.handleNuca(l, data, m)
	} else {
		done = d.service(l, data, m)
	}
	if done {
		d.bridge.pool.put(m)
	}
}

// finish completes the current transaction, whose request has been
// answered, and restarts queued requests.
func (d *Directory) finish(l *dirLine, data []byte) {
	d.bridge.pool.put(l.cur)
	l.busy = false
	l.cur = nil
	d.drainWaiting(l, data)
}

func (d *Directory) drainWaiting(l *dirLine, data []byte) {
	for len(l.waiting) > 0 && !l.busy {
		next := l.waiting[0]
		n := copy(l.waiting, l.waiting[1:]) // keeps the queue's capacity
		l.waiting = l.waiting[:n]
		d.dispatch(l, data, next)
	}
}

// handleNuca serves NUCA remote accesses directly against the home slice;
// it reports false when the request parked or queued behind a fetch.
func (d *Directory) handleNuca(l *dirLine, data []byte, m *Message) bool {
	d.NucaOps++
	if !l.cached {
		// Charge the first-touch fetch cost as with MSI; NUCA requests
		// queue behind it.
		if l.busy {
			l.waiting = append(l.waiting, m)
			return false
		}
		// For NUCA, model the fetch synchronously through the MC but park
		// the request (single transaction per line at a time).
		d.fetch(l, m)
		return false
	}
	part := data[int(m.Off) : int(m.Off)+int(m.Len)]
	resp := Message{Type: MsgNucaResp, Addr: m.Addr, Off: m.Off, Len: m.Len}
	if m.Type == MsgNucaWrite {
		copy(part, m.Data)
	} else {
		resp.Data = part
	}
	d.bridge.send(m.Requester, ClassResponse, resp)
	return true
}
