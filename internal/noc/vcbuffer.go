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
// (headSlot) and advances past it. Push, Pop and Peek are those same
// primitives with a copy around them, for tests and the shard exchange.
//
// Credit semantics: the producer's view of free space is
//
//	capacity - (its own cumulative pushes - CommittedPops())
//
// where CommittedPops advances only when the consumer commits a negative
// clock edge. This makes space checks deterministic under cycle-accurate
// synchronization (pops performed during the current positive edge are
// not observable until the next cycle) and safe — never overflowing — under
// loose synchronization, where the committed count may simply lag.
//
// The committed count is kept at its reader: Commit stores it into a word
// inside the producer's egress bookkeeping (egressVC.credit, wired when
// the producer connects), so a router checking credit touches its own
// egress state — one line per egress port — instead of one remote buffer
// header per downstream VC. The word is the only copy; CommittedPops,
// restore and the shard exchange all go through it.
//
// Occupancy: every buffer owns one bit of an occupancy mask — for a
// router's buffer, bit i of the router's mask for the i-th ingress VC — and
// the bit is set whenever the buffer holds a flit, which is how the owning
// router finds its occupied VCs without visiting the empty ones. The
// producer sets it, in publish, the one place every push goes through
// (traversal, injection, Push): it loads the word first and does the atomic
// Or only if the bit is clear, so a packet streaming into a non-empty
// buffer pays no read-modify-write. The consumer clears it when a pop
// leaves the buffer empty (deriveOccupancy): And, then look at Len once
// more and set the bit again if a flit is there. That second look is what
// makes the pair safe without a lock — the producer stores its push count
// and then loads the mask, the consumer clears the mask and then loads the
// push count, and with sequentially consistent atomics at least one of them
// sees the other's write — so a resident flit is never left with its bit
// clear.
// The reverse can happen: a producer's Or may land after the consumer has
// already popped the flit it announces (under loose synchronization the
// consumer can run that far ahead), leaving a set bit over an empty
// buffer. That costs the consumer one look, which clears it; under
// cycle-accurate synchronization the bit equals "Len() > 0" at every cycle
// boundary. LoadState derives the bit from what it restored. The mask is
// derived state and is never serialized.
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
	credit *atomic.Uint64 // committed pops, held by the producer; see creditWord
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
	b := &VCBuffer{credit: new(atomic.Uint64), occ: new(atomic.Uint64)}
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
// and marks the buffer occupied.
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

// Push appends a copy of f (producer side). It returns false if the
// buffer is physically full.
func (b *VCBuffer) Push(f Flit) bool {
	s := b.tailSlot()
	if s == nil {
		return false
	}
	*s = f
	b.publish()
	return true
}

// Peek returns a pointer to the head flit if one is present and visible at
// the given cycle. The pointer is valid until the next Pop and may be used
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

// Pop removes and returns the head flit (consumer side). The caller must
// have established non-emptiness via Peek in the same phase. A router
// caches what it knows about its own buffers' heads, so only a buffer no
// running router owns may be popped from outside (tests, and the shard
// exchange's replicas of remote buffers).
func (b *VCBuffer) Pop() Flit {
	f := *b.headSlot()
	b.advance()
	return f
}

// creditWord returns the word holding the committed pop count. A router's
// buffer whose producer never connected (a lone router in a unit test)
// keeps the count in a word of its own, made on first use.
func (b *VCBuffer) creditWord() *atomic.Uint64 {
	if b.credit == nil {
		b.credit = new(atomic.Uint64)
	}
	return b.credit
}

// attachCredit moves the committed count into w, a word the producer
// reads (build time only).
func (b *VCBuffer) attachCredit(w *atomic.Uint64) {
	if b.credit != nil {
		w.Store(b.credit.Load())
	}
	b.credit = w
}

// CommittedPops returns the consumer's committed cumulative pop count.
func (b *VCBuffer) CommittedPops() uint64 { return b.creditWord().Load() }

// Commit publishes the consumer's pops (negative clock edge). Only the
// owning tile calls this, at most once per simulated cycle.
func (b *VCBuffer) Commit() { b.commitOf().publish() }

// commit is a Commit taken at one time and published at another: the
// word to store into and the pop count to store. A router takes it when
// it pops (it pops a buffer at most once per cycle, so the count is what
// the buffer will hold at the negative edge) and publishes it there
// without having to touch the buffer again.
type commit struct {
	word *atomic.Uint64
	pops uint64
}

func (b *VCBuffer) commitOf() commit { return commit{b.creditWord(), b.pops.Load()} }

func (c commit) publish() { c.word.Store(c.pops) }

// flitAt returns the i-th resident flit counted from the head (consumer
// side). Only used at quiescent points (checkpointing, tests), never
// during a timed run.
func (b *VCBuffer) flitAt(i int) *Flit { return &b.slots()[b.pos(uint32(i))] }
