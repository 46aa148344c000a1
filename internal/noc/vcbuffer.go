package noc

import (
	"sync/atomic"
	"unsafe"
)

// VCBuffer is an ingress virtual-channel buffer: a fixed-capacity FIFO of
// flits shared by exactly two threads — the producing neighbour tile
// writes at the tail, the owning tile reads at the head. The paper (§II-C)
// guards each end with its own lock; what it requires is that the two
// threads never lose or reorder flits. A single-producer/single-consumer
// ring gives the same guarantee without locks: each end owns its ring
// index and a cumulative counter, and publishes the counter with an atomic
// store only after it has finished with the slot. The consumer reads a
// slot only below the published push count; the producer writes a slot
// only when the credit rule below says it was popped.
//
// Both ends work on the slots in place: the producer takes the tail slot
// (tailSlot), fills it and publishes it; the consumer reads the head slot
// (headSlot) and advances past it. Push and Peek are those same
// primitives with a copy around them, for the injection port and the
// router's look at a head.
//
// Credit semantics: the producer's view of free space is
//
//	capacity - (its own cumulative pushes - the consumer's committed pops)
//
// where the committed pops advance only at the consumer's negative clock
// edge and become visible, as a pushed flit does, in the next cycle: a
// worker may commit cycle c while another is still in c's positive edge,
// so one barrier per cycle keeps the view deterministic. Under loose
// synchronization the view may lag, which never overflows a buffer. The
// count is kept at its reader, in a cell inside the producer's egress
// record (egressVC.credit, wired when the producer connects): one word
// holding the count and the cycle that committed it, stored once by the
// negative edge of a cycle that popped the buffer (Router.commit) and by
// nothing in a cycle that did not. The producer, running cycle c, takes the
// count as stored unless it is stamped c: that commit may or may not have
// run yet on another worker, and it is one pop ahead, since a buffer pops
// at most one flit per cycle (creditCell.view). A write at a quiescent
// point — Commit, restore — is unstamped and read whole
// in every cycle. Every new count is written through commit.publish.
//
// The credit cell is also the one place both ends reach that has room for
// what a slot does not hold: the payload ring (creditCell.payloads), one
// entry per slot at the slot's own ring position, allocated by the first
// producer push that carries a payload — so only protocol traffic ever
// fills one. The producer writes an entry before publish; the consumer
// takes it, and clears it, before advance. So an entry is written and read
// under the same ordering as its slot, and is nil unless the flit in the
// slot carries a payload.
//
// Occupancy: every buffer owns one bit of an occupancy mask — for a
// router's buffer, bit i of the router's mask for the i-th ingress VC — and
// the bit is set while the buffer holds a flit its owner has a reason to
// look at, which is how the owning router finds the VCs worth a visit
// without touching the others. The bit is the buffer's doorbell. Two parties
// ring it:
//
//   - the producer, in publish, the one place every push goes through
//     (traversal, injection, Push): it loads the word first and does the
//     atomic Or only if the bit is clear, so a packet streaming into a
//     buffer that is being visited pays no read-modify-write;
//   - the buffer downstream of this one's router, in commit.publish, the one
//     place every credit is written: after storing the count it takes the
//     waiter armed in the credit cell, if any, and sets that buffer's bit.
//
// Only the owner clears it, in two situations, each time followed by a
// second look at what the clearing could have raced with:
//
//   - a pop leaves the buffer empty (deriveOccupancy): And, then load Len
//     and set the bit again if a flit is there. The producer stores its push
//     count and then loads the mask; the owner clears the mask and then
//     loads the push count. With sequentially consistent atomics at least
//     one of them sees the other's write, so a resident flit is never left
//     with its bit clear.
//   - the router parks the VC (vcState.park): the head flit could move but
//     for a credit, so no visit is of any use until the credit comes or
//     another flit arrives behind the head (which must be stamped with the
//     cycle it arrived in). The owner arms itself as waiter in the credit
//     cell, clears the bit, then loads the latest credit count and Len
//     again and sets the bit back if either moved — the latest count, not
//     the one the VC may use this cycle: a credit committed in the cycle it
//     parks is usable the next, and its publish may have found no waiter
//     armed. Against the producer this is the
//     pair above. Against the downstream buffer: that side stores the count
//     and then loads the waiter, this side stores the waiter and then
//     (after the And) loads the count — one of them sees the other, so
//     either the owner notices the credit itself or the downstream rings;
//     and if its Or lands before the And, the owner's load of the count,
//     later still, sees the credit.
//
// Both ringers can ring for nothing — a producer's Or may land after the
// owner has already popped the flit it announces (under loose
// synchronization the owner can run that far ahead) — which costs the owner
// one look. Under cycle-accurate synchronization the bit is, at every cycle
// boundary, clear exactly when the buffer is empty or its VC is parked.
// The mask and who is parked are derived state, never serialized: LoadState
// sets the bit of a buffer it restored flits into, and the first pass
// parks what is blocked.
//
// A router's buffers are headers inside its ingress VC records and share
// one flit slab (NewRouter); NewVCBuffer builds a free-standing one. The
// header is kept at 56 bytes so that the record stays at 128
// (TestVCStateLayout): the mask pointer and bit index took the place of the
// slot slice's capacity word, which always equalled its length, and of half
// its length word — the ring is held as a pointer to its first slot and a
// 32-bit slot count, and slots rebuilds the slice, bounds checks included.
type VCBuffer struct {
	pushes atomic.Uint64 // cumulative pushes, stored after the slot write
	pops   atomic.Uint64 // cumulative pops, stored after the slot read

	ring   *Flit          // the first of n slots; see slots
	credit *creditCell    // committed pops and the payload ring, held by the producer; see cell
	occ    *atomic.Uint64 // the occupancy mask word holding this buffer's bit

	n    uint32 // capacity
	head uint32 // next pop position (consumer-owned)
	tail uint32 // next push position (producer-owned)
	bit  uint8  // this buffer's bit in *occ
}

// NewVCBuffer returns an empty free-standing buffer holding up to capacity
// flits, with its own credit word and a one-bit occupancy mask.
func NewVCBuffer(capacity int) *VCBuffer {
	if capacity < 1 {
		panic("noc: VC buffer capacity must be >= 1")
	}
	b := &VCBuffer{credit: new(creditCell), occ: new(atomic.Uint64)}
	b.setSlots(make([]Flit, capacity))
	return b
}

// setSlots makes s the buffer's ring (build time only).
func (b *VCBuffer) setSlots(s []Flit) { b.ring, b.n = unsafe.SliceData(s), uint32(len(s)) }

// slots returns the ring as the slice setSlots was given.
func (b *VCBuffer) slots() []Flit { return unsafe.Slice(b.ring, b.n) }

// Capacity returns the buffer's flit capacity.
func (b *VCBuffer) Capacity() int { return int(b.n) }

// Len returns the instantaneous number of flits resident (the router's
// credit logic uses the committed count instead). Loading pops first keeps
// the difference non-negative from any thread.
func (b *VCBuffer) Len() int {
	pops := b.pops.Load()
	return int(b.pushes.Load() - pops)
}

// wrap folds a position that has moved at most one lap past the end back
// into the ring: the one place that wraps, a conditional subtraction and
// never a division.
func (b *VCBuffer) wrap(p uint32) uint32 {
	if p >= b.n {
		p -= b.n
	}
	return p
}

// pos returns the ring position i slots past the head, for i up to the
// capacity.
func (b *VCBuffer) pos(i uint32) uint32 { return b.wrap(b.head + i) }

// tailSlot returns the slot the next flit goes into (producer side), or
// nil if the buffer is physically full — a flow-control bug in the caller,
// which must never push without a credit. The slot belongs to the
// producer until publish.
func (b *VCBuffer) tailSlot() *Flit {
	if b.Len() == int(b.n) {
		return nil
	}
	return &b.slots()[b.tail]
}

// publish makes the flit written into tailSlot visible to the consumer
// and rings the buffer's doorbell: the bit is clear when the buffer was
// empty and when its VC is parked.
func (b *VCBuffer) publish() {
	b.tail = b.wrap(b.tail + 1)
	b.pushes.Store(b.pushes.Load() + 1)
	if m := uint64(1) << b.bit; b.occ.Load()&m == 0 {
		b.occ.Or(m)
	}
}

// headSlot returns the oldest resident flit (consumer side). The caller
// must know the buffer is non-empty; the slot stays valid, and the
// consumer's to modify, until advance.
func (b *VCBuffer) headSlot() *Flit { return &b.slots()[b.head] }

// advance removes the head flit (consumer side).
func (b *VCBuffer) advance() {
	b.head = b.wrap(b.head + 1)
	pops := b.pops.Load() + 1
	b.pops.Store(pops)
	if b.pushes.Load() == pops {
		b.deriveOccupancy()
	}
}

// deriveOccupancy makes the occupancy bit say whether the buffer holds a
// flit (consumer side): it clears the bit and sets it again if a flit is
// there. The consumer calls it when it finds the buffer empty; the second
// look catches a push that got in meanwhile, whose producer may have loaded
// the mask while the bit was still set.
func (b *VCBuffer) deriveOccupancy() {
	m := uint64(1) << b.bit
	b.occ.And(^m)
	if b.Len() > 0 {
		b.occ.Or(m)
	}
}

// Push appends a copy of f, carrying payload, nil for none (producer
// side). It returns false if the buffer is physically full.
func (b *VCBuffer) Push(f Flit, payload any) bool {
	s := b.tailSlot()
	if s == nil {
		return false
	}
	*s = f
	if payload != nil {
		b.setPayload(b.tail, payload)
	}
	b.publish()
	return true
}

// setPayload attaches payload to the flit at ring position pos (producer
// side before publish, or at a quiescent point), allocating the ring on
// first use.
func (b *VCBuffer) setPayload(pos uint32, payload any) {
	c := b.cell()
	ring := c.payloads.Load()
	if ring == nil {
		s := make([]any, b.n)
		ring = &s
		c.payloads.Store(ring)
	}
	(*ring)[pos] = payload
}

// takePayload detaches the head flit's payload, nil if it has none
// (consumer side, before advance).
func (b *VCBuffer) takePayload() any {
	ring := b.cell().payloads.Load()
	if ring == nil {
		return nil
	}
	p := (*ring)[b.head]
	(*ring)[b.head] = nil
	return p
}

// payloadAt returns the payload of the i-th resident flit counted from the
// head (consumer side, or at a quiescent point).
func (b *VCBuffer) payloadAt(i int) any {
	if ring := b.cell().payloads.Load(); ring != nil {
		return (*ring)[b.pos(uint32(i))]
	}
	return nil
}

// Peek returns a pointer to the head flit if one is present and visible at
// the given cycle. The pointer is valid until the head advances and may be used
// by the owning tile to inspect (never to remove) the flit.
func (b *VCBuffer) Peek(cycle uint64) (*Flit, bool) {
	if b.Len() == 0 {
		return nil, false
	}
	// VisibleAt values are monotone along the queue (producer clock never
	// decreases), so checking only the head suffices.
	if f := b.headSlot(); f.VisibleAt <= cycle {
		return f, true
	}
	return nil, false
}

// creditCell is what a buffer's consumer writes for its producer — one
// word, the committed pop count under the stamp of the cycle whose negative
// edge committed it — and the buffer of the producer's ingress VC parked on
// that credit, if any. The count is kept modulo 2^16: the producer only
// subtracts it from its own push count, at most a capacity apart. The cell
// also holds the buffer's payload ring, nil until a payload is pushed (see
// VCBuffer).
type creditCell struct {
	word     atomic.Uint64
	waiter   atomic.Pointer[VCBuffer]
	payloads atomic.Pointer[[]any]
}

// MaxVCBufFlits bounds a VC buffer's capacity below the credit count's
// modulus, so that a producer tells a full buffer from an empty one; far
// above any modeled router (the presets use at most 16).
const MaxVCBufFlits = 1024

// creditStamp is the stamp of a count committed at cycle's negative edge:
// cycle+1 in the word's high 48 bits, which repeat only after 2^48 cycles.
// Stamp 0 — the zero word, and what a write at a quiescent point stores —
// names no cycle.
func creditStamp(cycle uint64) uint64 { return (cycle + 1) << 16 }

// latest returns the committed count, whenever it was committed.
func (c *creditCell) latest() uint16 { return uint16(c.word.Load()) }

// view returns the count the producer may use in the cycle after prev, the
// last cycle its router ran. A count stamped with that cycle may or may not
// be committed yet on another worker, and is one pop ahead (a buffer pops
// at most one flit per cycle); every other count is final.
func (c *creditCell) view(prev uint64) uint16 {
	w := c.word.Load()
	if w&^0xffff == creditStamp(prev+1) {
		return uint16(w) - 1
	}
	return uint16(w)
}

// cell returns the buffer's credit cell. A router's buffer whose producer
// never connected (a lone router in a unit test) keeps the count in a cell
// of its own, made on first use.
func (b *VCBuffer) cell() *creditCell {
	if b.credit == nil {
		b.credit = new(creditCell)
	}
	return b.credit
}

// attachCredit moves the committed count into c, a cell the producer
// reads (build time only, before any payload is pushed).
func (b *VCBuffer) attachCredit(c *creditCell) {
	if b.credit != nil {
		commit{c, b.credit.latest()}.publish(0)
	}
	b.credit = c
}

// Commit publishes the consumer's pops at a quiescent point, unstamped:
// usable in every cycle (a running router commits through Router.commit).
func (b *VCBuffer) Commit() { b.commitOf().publish(0) }

// commit is a Commit taken at one time and published at another: the
// cell to store into and the pop count to store. A router takes it when
// it pops (it pops a buffer at most once per cycle, so the count is what
// the buffer will hold at the negative edge) and publishes it there
// without having to touch the buffer again.
type commit struct {
	cell *creditCell
	pops uint16
}

func (b *VCBuffer) commitOf() commit { return commit{b.cell(), uint16(b.pops.Load())} }

// publish is the one place a credit is written — one store of the count
// under stamp, a creditStamp or 0 — and so the one place a VC parked on that
// credit is woken: store the count, then take the waiter, if one is armed,
// and set its occupancy bit.
func (c commit) publish(stamp uint64) {
	c.cell.word.Store(stamp | uint64(c.pops))
	if c.cell.waiter.Load() != nil {
		if w := c.cell.waiter.Swap(nil); w != nil {
			w.occ.Or(1 << w.bit)
		}
	}
}

// flitAt returns the i-th resident flit counted from the head (consumer
// side, or at a quiescent point).
func (b *VCBuffer) flitAt(i int) *Flit { return &b.slots()[b.pos(uint32(i))] }
