package mem

import (
	"encoding/binary"
	"fmt"

	"hornet/internal/noc"
)

// L1Stats counts cache events.
type L1Stats struct {
	Loads, Stores uint64
	Hits, Misses  uint64
	Evictions     uint64
	WriteBacks    uint64
	Invalidations uint64
	StallCycles   uint64
}

// MSI line states.
const (
	stInvalid byte = iota
	stShared
	stModified
)

// l1Line is one way's tag and state; its data sits in the cache's slab at
// the way's index, and filled says whether those bytes were ever written
// (a way nothing was installed in checkpoints as empty).
type l1Line struct {
	valid  bool
	filled bool
	state  byte
	tag    uint32
	lru    uint64
}

// l1Pending is the cache's single outstanding access (the in-order core
// has at most one), held by value in the L1.
type l1Pending struct {
	txn       uint64
	write     bool
	addr      uint32
	size      int
	wdata     uint64
	readyAt   uint64 // hit-latency completion, when no network involved
	network   bool   // waiting for protocol messages
	needAck   int    // remaining InvAcks before a GetM completes
	haveData  bool
	fill      []byte // the received line, in the cache's fill buffer
	fillState byte
	// noInstall marks a GetS fill whose line was invalidated while the
	// data was in flight: the load completes with the fill data (it is
	// ordered before the invalidating store) but the line is not cached.
	noInstall bool
}

// L1 is a private set-associative write-back write-allocate L1 cache with
// MSI coherence (paper §II-D2). It is also the tile's protocol client:
// the bridge feeds it Inv/Fwd/Data/Ack messages.
//
// A transaction allocates nothing: the pending access is a field, line
// data lives in one slab that fills copy into, the inbox swaps between two
// slices, and protocol messages come from and return to the tile's free
// list (the bridge's).
type L1 struct {
	node    noc.NodeID
	am      *AddressMap
	sets    int
	ways    int
	shift   uint // log2 of the line size
	latency uint64
	bridge  *Bridge

	lines   []l1Line
	data    []byte // line bytes, way i at [i*LineBytes, (i+1)*LineBytes)
	lruTick uint64
	txn     uint64
	busy    bool // pend holds an access in progress
	pend    l1Pending
	fillBuf []byte // backs pend.fill

	inbox []inboundMsg
	spare []inboundMsg // the other inbox buffer; Tick swaps the two

	Stats L1Stats
}

type inboundMsg struct {
	m       *Message
	src     noc.NodeID
	availAt uint64
}

// NewL1 builds a cache. sets and ways must be >= 1.
func NewL1(node noc.NodeID, am *AddressMap, sets, ways int, latency int, bridge *Bridge) *L1 {
	if sets < 1 || ways < 1 {
		panic("mem: L1 needs >= 1 set and way")
	}
	if latency < 1 {
		latency = 1
	}
	c := &L1{
		node:    node,
		am:      am,
		sets:    sets,
		ways:    ways,
		shift:   lineShift(am.LineBytes),
		latency: uint64(latency),
		bridge:  bridge,
		lines:   make([]l1Line, sets*ways),
		data:    make([]byte, sets*ways*am.LineBytes),
		fillBuf: make([]byte, 0, am.LineBytes),
	}
	return c
}

// Deliver queues a protocol message for processing next cycle (bridge
// callback, same tile thread).
func (c *L1) Deliver(m *Message, src noc.NodeID, cycle uint64) {
	c.inbox = append(c.inbox, inboundMsg{m: m, src: src, availAt: cycle + 1})
}

// Tick processes inbound protocol traffic; call once per cycle before the
// router's transfer phase. Handling may requeue messages (deferred
// forwards) and local loopback sends may deliver new ones, so the batch
// is set aside first and the inbox continues in the other buffer.
func (c *L1) Tick(cycle uint64) {
	if len(c.inbox) == 0 {
		return
	}
	batch := c.inbox
	c.inbox = c.spare[:0]
	for _, im := range batch {
		if im.availAt > cycle {
			c.inbox = append(c.inbox, im)
			continue
		}
		if c.handle(im.m, cycle) {
			c.bridge.pool.put(im.m)
		}
	}
	c.spare = batch[:0]
}

// locate splits addr into the index of its set's first way and its tag.
func (c *L1) locate(addr uint32) (first int, tag uint32) {
	line := addr >> c.shift
	tag = line / uint32(c.sets)
	return int(line-tag*uint32(c.sets)) * c.ways, tag
}

// lineData returns way i's bytes.
func (c *L1) lineData(i int) []byte {
	return c.data[i*c.am.LineBytes : (i+1)*c.am.LineBytes]
}

// lookup returns the way holding addr's line, or -1.
func (c *L1) lookup(addr uint32) int {
	first, tag := c.locate(addr)
	for i := first; i < first+c.ways; i++ {
		l := &c.lines[i]
		if l.valid && l.tag == tag && l.state != stInvalid {
			return i
		}
	}
	return -1
}

// victim picks the way to fill for the line with this tag in the set whose
// first way is first: an existing copy of the same line is reused (so a
// stale Shared copy can never shadow a fresh fill), then an invalid way,
// then the LRU way — writing back a Modified victim.
func (c *L1) victim(first int, tag uint32) int {
	best := first
	for i := first; i < first+c.ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == tag {
			best = i
			goto chosen
		}
	}
	for i := first + 1; i < first+c.ways; i++ {
		if !c.lines[i].valid {
			best = i
			break
		}
		if c.lines[i].lru < c.lines[best].lru {
			best = i
		}
	}
chosen:
	v := &c.lines[best]
	if v.valid && v.state == stModified {
		c.Stats.WriteBacks++
		// The victim shares the new line's set by construction.
		victimAddr := (v.tag*uint32(c.sets) + uint32(first/c.ways)) << c.shift
		c.bridge.send(c.am.Home(victimAddr), ClassRequest, Message{
			Type: MsgPutM, Addr: victimAddr, Data: c.lineData(best), Requester: c.node,
		})
	}
	if v.valid {
		c.Stats.Evictions++
	}
	v.valid = false
	v.state = stInvalid
	return best
}

// Access implements mips.DataMem.
func (c *L1) Access(cycle uint64, write bool, addr uint32, size int, wdata uint64) (uint64, bool) {
	way := -1
	if !c.busy {
		way = c.start(cycle, write, addr, size, wdata)
	}
	return c.poll(cycle, way)
}

// start begins an access and returns the way it hit in, or -1 on a miss.
func (c *L1) start(cycle uint64, write bool, addr uint32, size int, wdata uint64) int {
	if write {
		c.Stats.Stores++
	} else {
		c.Stats.Loads++
	}
	c.txn++
	c.busy = true
	c.pend = l1Pending{txn: c.txn, write: write, addr: addr, size: size, wdata: wdata}
	p := &c.pend
	if i := c.lookup(addr); i >= 0 {
		if !write || c.lines[i].state == stModified {
			c.Stats.Hits++
			p.readyAt = cycle + c.latency - 1
			return i
		}
	}
	// Miss (or store upgrade): go to the directory.
	c.Stats.Misses++
	p.network = true
	t := MsgGetS
	if write {
		t = MsgGetM
	}
	c.bridge.send(c.am.Home(addr), ClassRequest, Message{
		Type: t, Addr: c.am.LineAddr(addr), Requester: c.node, Txn: p.txn,
	})
	return -1
}

// poll advances the pending access. way is where start just hit (nothing
// can have touched the line since), or -1 to look the line up.
func (c *L1) poll(cycle uint64, way int) (uint64, bool) {
	if !c.busy {
		panic("mem: L1 poll without pending access")
	}
	p := &c.pend
	if p.network {
		if !p.haveData || p.needAck > 0 {
			c.Stats.StallCycles++
			return 0, false
		}
		if p.noInstall {
			// The line was invalidated while this GetS fill was in
			// flight: serve the load from the received data without
			// caching it (see the MsgInv handler).
			off := c.am.LineOffset(p.addr)
			c.busy = false
			return getUint(p.fill[off : off+p.size]), true
		}
		// Fill completed: install line and fall through to completion.
		first, tag := c.locate(p.addr)
		i := c.victim(first, tag)
		c.lines[i] = l1Line{valid: true, filled: true, state: p.fillState, tag: tag, lru: c.lines[i].lru}
		copy(c.lineData(i), p.fill)
		p.network = false
		p.readyAt = cycle // data just arrived; complete this cycle
	}
	if cycle < p.readyAt {
		c.Stats.StallCycles++
		return 0, false
	}
	i := way
	if i < 0 {
		i = c.lookup(p.addr)
	}
	if i < 0 {
		// The line was invalidated between fill and completion (possible
		// under racing Inv); restart the transaction.
		c.start(cycle, p.write, p.addr, p.size, p.wdata)
		return 0, false
	}
	l := &c.lines[i]
	c.lruTick++
	l.lru = c.lruTick
	off := i*c.am.LineBytes + c.am.LineOffset(p.addr)
	c.busy = false
	if p.write {
		if l.state != stModified {
			// Should not happen: stores complete only with M.
			panic(fmt.Sprintf("mem: store completing in state %d", l.state))
		}
		putUint(c.data[off:off+p.size], p.wdata)
		return 0, true
	}
	return getUint(c.data[off : off+p.size]), true
}

// pendingOn reports whether the cache's outstanding access is to the line
// at base.
func (c *L1) pendingOn(base uint32) bool {
	return c.busy && c.am.LineAddr(c.pend.addr) == base
}

// deferFwd requeues a forwarded request that raced ahead of this cache's
// own in-flight fill of the same line: the directory has already made us
// owner, but the data (or final ack) has not landed yet. Holding the
// forward until the fill completes resolves the race without NACKs.
func (c *L1) deferFwd(m *Message, cycle uint64) bool {
	if i := c.lookup(m.Addr); i >= 0 && c.lines[i].state == stModified {
		return false // we can serve it right now
	}
	if c.pendingOn(m.Addr) {
		c.inbox = append(c.inbox, inboundMsg{m: m, availAt: cycle + 1})
		return true
	}
	return false
}

// handle processes one protocol message and reports whether it is done
// with it (a deferred forward goes back into the inbox instead).
func (c *L1) handle(m *Message, cycle uint64) bool {
	p := &c.pend
	switch m.Type {
	case MsgData:
		if !c.pendingOn(m.Addr) || m.Txn != p.txn {
			break // stale or duplicate response from an older transaction
		}
		p.haveData = true
		p.needAck += m.AckCount
		p.fill = append(c.fillBuf[:0], m.Data...)
		if p.write {
			p.fillState = stModified
		} else {
			p.fillState = stShared
		}
	case MsgInvAck:
		if c.pendingOn(m.Addr) && m.Txn == p.txn {
			p.needAck--
		}
	case MsgInv:
		if i := c.lookup(m.Addr); i >= 0 {
			c.lines[i].state = stInvalid
			c.lines[i].valid = false
			c.Stats.Invalidations++
		}
		if c.pendingOn(m.Addr) && p.network && !p.write {
			// The invalidation raced our own in-flight GetS fill of this
			// line: the Data may already be buffered but not installed
			// (directory and cache share a tile, so both land in one
			// inbox batch), or still be in the network with the 1-flit
			// Inv having overtaken the multi-flit Data worm (dynamic VC
			// allocation does not order same-flow packets). Installing
			// that fill would leave a Shared copy the directory no
			// longer tracks — a permanently stale read. The textbook
			// IS_D resolution: complete the load with the fill data
			// (the load is ordered before the invalidating store at the
			// directory) but do not cache the line, so the next access
			// misses and refetches. Pending GetM fills ignore the Inv:
			// it targets our old Shared copy, and once we are granted M
			// later writers are forwarded to us, never invalidated.
			p.noInstall = true
		}
		// Always ack (silent S evictions make spurious Invs normal).
		c.bridge.send(m.Requester, ClassResponse, Message{
			Type: MsgInvAck, Addr: m.Addr, Requester: c.node, Txn: m.Txn,
		})
	case MsgFwdGetS, MsgFwdGetM:
		if c.deferFwd(m, cycle) {
			return false
		}
		// Unless we still own the line our PutM is already in flight and
		// the directory resolves it.
		if i := c.lookup(m.Addr); i >= 0 && c.lines[i].state == stModified {
			c.bridge.send(m.Requester, ClassResponse, Message{
				Type: MsgData, Addr: m.Addr, Data: c.lineData(i), Txn: m.Txn,
			})
			if m.Type == MsgFwdGetS {
				c.bridge.send(c.am.Home(m.Addr), ClassRequest, Message{
					Type: MsgPutM, Addr: m.Addr, Data: c.lineData(i), Requester: c.node,
				})
				c.lines[i].state = stShared
				break
			}
			c.bridge.send(c.am.Home(m.Addr), ClassRequest, Message{
				Type: MsgPutAck, Addr: m.Addr, Requester: c.node,
			})
			c.lines[i].state = stInvalid
			c.lines[i].valid = false
			c.Stats.Invalidations++
		}
	case MsgPutAck:
		// Write-back acknowledged; nothing to do (fire-and-forget PutM).
	default:
		panic(fmt.Sprintf("mem: L1 got unexpected message %v", m.Type))
	}
	return true
}

func putUint(dst []byte, v uint64) {
	switch len(dst) {
	case 1:
		dst[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(dst, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(dst, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(dst, v)
	default:
		panic(fmt.Sprintf("mem: unsupported access size %d", len(dst)))
	}
}

func getUint(src []byte) uint64 {
	switch len(src) {
	case 1:
		return uint64(src[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(src))
	case 4:
		return uint64(binary.LittleEndian.Uint32(src))
	case 8:
		return binary.LittleEndian.Uint64(src)
	default:
		panic(fmt.Sprintf("mem: unsupported access size %d", len(src)))
	}
}
