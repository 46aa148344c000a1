package mem

import (
	"fmt"
	"sort"

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
	sender Sender
	store  *Store

	lines map[uint32]*dirLine
	inbox []inboundMsg

	// Stats.
	Requests   uint64
	MemFetches uint64
	MemWrites  uint64
	Forwards   uint64
	NucaOps    uint64
}

type dirLine struct {
	state   byte // stInvalid (memory only), stShared, stModified
	sharers map[noc.NodeID]struct{}
	owner   noc.NodeID
	cached  bool // data has been fetched on-chip at least once

	busy    bool       // transaction in flight (MC fetch or forward)
	cur     *Message   // request being serviced
	waiting []*Message // queued requests for this line
}

// NewDirectory builds the slice for one tile.
func NewDirectory(node noc.NodeID, am *AddressMap, sender Sender) *Directory {
	return &Directory{
		node:   node,
		am:     am,
		sender: sender,
		store:  NewStore(am.LineBytes),
		lines:  make(map[uint32]*dirLine),
	}
}

// Store exposes the slice's backing store (program preloading).
func (d *Directory) Store() *Store { return d.store }

// Deliver queues a message (bridge callback).
func (d *Directory) Deliver(m *Message, src noc.NodeID, cycle uint64) {
	d.inbox = append(d.inbox, inboundMsg{m: m, src: src, availAt: cycle + 1})
}

// Tick processes inbound messages, one line-transaction step per message.
// The batch is snapshotted first: handling can deliver new local messages
// (bridge loopback) that must not be lost to slice aliasing.
func (d *Directory) Tick(cycle uint64) {
	batch := d.inbox
	d.inbox = nil
	for _, im := range batch {
		if im.availAt > cycle {
			d.inbox = append(d.inbox, im)
			continue
		}
		d.handle(im.m, cycle)
	}
}

func (d *Directory) line(addr uint32) *dirLine {
	base := d.am.LineAddr(addr)
	l := d.lines[base]
	if l == nil {
		l = &dirLine{state: stInvalid, sharers: make(map[noc.NodeID]struct{})}
		d.lines[base] = l
	}
	return l
}

func (d *Directory) handle(m *Message, cycle uint64) {
	if d.am.Home(m.Addr) != d.node && m.Type != MsgMemData {
		panic(fmt.Sprintf("mem: directory %d got message for line homed at %d", d.node, d.am.Home(m.Addr)))
	}
	d.Requests++
	switch m.Type {
	case MsgGetS, MsgGetM:
		l := d.line(m.Addr)
		if l.busy {
			l.waiting = append(l.waiting, m)
			return
		}
		d.service(l, m)
	case MsgPutM:
		d.handlePutM(m)
	case MsgPutAck:
		// Owner finished a FwdGetM hand-off.
		l := d.line(m.Addr)
		if l.busy && l.cur != nil && l.cur.Type == MsgGetM {
			req := l.cur
			l.owner = req.Requester
			l.state = stModified
			d.finish(l)
		}
	case MsgMemData:
		d.handleMemData(m)
	case MsgNucaRead, MsgNucaWrite:
		d.handleNuca(m)
	default:
		panic(fmt.Sprintf("mem: directory got unexpected message %v", m.Type))
	}
}

// service starts handling a GetS/GetM on an idle line.
func (d *Directory) service(l *dirLine, m *Message) {
	if !l.cached {
		// First touch: fetch the line from the memory controller; the
		// request parks until MsgMemData returns.
		l.busy = true
		l.cur = m
		d.MemFetches++
		d.sender.Send(d.am.Controller(m.Addr), ClassMemory, &Message{
			Type: MsgMemRead, Addr: d.am.LineAddr(m.Addr), Requester: d.node,
		})
		return
	}
	switch {
	case m.Type == MsgGetS && l.state != stModified:
		l.sharers[m.Requester] = struct{}{}
		l.state = stShared
		d.respondData(m.Requester, m.Addr, 0, m.Txn)
	case m.Type == MsgGetS: // state M: forward to owner
		l.busy = true
		l.cur = m
		d.Forwards++
		d.sender.Send(l.owner, ClassResponse, &Message{
			Type: MsgFwdGetS, Addr: d.am.LineAddr(m.Addr), Requester: m.Requester, Txn: m.Txn,
		})
	case m.Type == MsgGetM && l.state == stModified:
		if l.owner == m.Requester {
			// Owner re-requesting (lost line mid-transaction): re-grant.
			d.respondData(m.Requester, m.Addr, 0, m.Txn)
			return
		}
		l.busy = true
		l.cur = m
		d.Forwards++
		d.sender.Send(l.owner, ClassResponse, &Message{
			Type: MsgFwdGetM, Addr: d.am.LineAddr(m.Addr), Requester: m.Requester, Txn: m.Txn,
		})
	default: // GetM on I or S
		// Invalidations go out in sorted sharer order: map iteration
		// order would inject packets in a run-to-run random order, which
		// breaks the simulator's determinism (and with it the snapshot
		// round-trip contract).
		sharers := make([]noc.NodeID, 0, len(l.sharers))
		for s := range l.sharers {
			sharers = append(sharers, s)
		}
		sort.Slice(sharers, func(i, j int) bool { return sharers[i] < sharers[j] })
		acks := 0
		for _, s := range sharers {
			if s == m.Requester {
				continue
			}
			acks++
			d.sender.Send(s, ClassResponse, &Message{
				Type: MsgInv, Addr: d.am.LineAddr(m.Addr), Requester: m.Requester, Txn: m.Txn,
			})
		}
		l.sharers = make(map[noc.NodeID]struct{})
		l.state = stModified
		l.owner = m.Requester
		d.respondData(m.Requester, m.Addr, acks, m.Txn)
	}
}

// respondData sends the line's current data to a requester, echoing the
// request's transaction number.
func (d *Directory) respondData(to noc.NodeID, addr uint32, acks int, txn uint64) {
	line := d.store.Line(addr)
	d.sender.Send(to, ClassResponse, &Message{
		Type: MsgData, Addr: d.am.LineAddr(addr),
		Data: append([]byte(nil), line...), AckCount: acks, Txn: txn,
	})
}

// handlePutM folds a write-back (eviction or forward completion).
func (d *Directory) handlePutM(m *Message) {
	l := d.line(m.Addr)
	d.store.WriteLine(m.Addr, m.Data)
	d.MemWrites++
	d.sender.Send(d.am.Controller(m.Addr), ClassMemory, &Message{
		Type: MsgMemWrite, Addr: d.am.LineAddr(m.Addr), Requester: d.node,
	})
	if l.busy && l.cur != nil {
		// The PutM completes an in-flight forward: answer the parked
		// requester directly (covers the owner-evicted race).
		req := l.cur
		switch req.Type {
		case MsgGetS:
			l.state = stShared
			l.sharers[m.Requester] = struct{}{} // previous owner keeps S
			l.sharers[req.Requester] = struct{}{}
			d.respondData(req.Requester, m.Addr, 0, req.Txn)
		case MsgGetM:
			l.state = stModified
			l.owner = req.Requester
			d.respondData(req.Requester, m.Addr, 0, req.Txn)
		}
		d.finish(l)
		return
	}
	if l.state == stModified && l.owner == m.Requester {
		l.state = stInvalid
		l.cached = true
	}
}

// handleMemData resumes the request that waited on an off-chip fetch.
func (d *Directory) handleMemData(m *Message) {
	l := d.line(m.Addr)
	if !l.busy || l.cur == nil {
		return
	}
	l.cached = true
	req := l.cur
	l.busy = false
	l.cur = nil
	d.dispatch(l, req)
	if !l.busy {
		d.drainWaiting(l)
	}
}

// dispatch routes a (possibly parked) request to its handler.
func (d *Directory) dispatch(l *dirLine, m *Message) {
	switch m.Type {
	case MsgNucaRead, MsgNucaWrite:
		d.handleNuca(m)
	default:
		d.service(l, m)
	}
}

// finish completes the current transaction and restarts queued requests.
func (d *Directory) finish(l *dirLine) {
	l.busy = false
	l.cur = nil
	d.drainWaiting(l)
}

func (d *Directory) drainWaiting(l *dirLine) {
	for len(l.waiting) > 0 && !l.busy {
		next := l.waiting[0]
		l.waiting = l.waiting[1:]
		d.dispatch(l, next)
	}
}

// handleNuca serves NUCA remote accesses directly against the home slice.
func (d *Directory) handleNuca(m *Message) {
	d.NucaOps++
	line := d.store.Line(m.Addr)
	base := d.am.LineAddr(m.Addr)
	if !d.line(base).cached {
		// Charge the first-touch fetch cost as with MSI; NUCA requests
		// queue behind it.
		l := d.line(base)
		if l.busy {
			l.waiting = append(l.waiting, m)
			return
		}
		// For NUCA, model the fetch synchronously through the MC but park
		// the request (single transaction per line at a time).
		l.busy = true
		l.cur = m
		d.MemFetches++
		d.sender.Send(d.am.Controller(m.Addr), ClassMemory, &Message{
			Type: MsgMemRead, Addr: base, Requester: d.node,
		})
		return
	}
	off := int(m.Off)
	n := int(m.Len)
	resp := &Message{Type: MsgNucaResp, Addr: m.Addr, Off: m.Off, Len: m.Len}
	if m.Type == MsgNucaWrite {
		copy(line[off:off+n], m.Data)
	} else {
		resp.Data = append([]byte(nil), line[off:off+n]...)
	}
	d.sender.Send(m.Requester, ClassResponse, resp)
}
