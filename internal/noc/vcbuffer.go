package noc

import "sync/atomic"

// VCBuffer is an ingress virtual-channel buffer: a fixed-capacity FIFO of
// flits shared by exactly two threads — the producing neighbour tile
// pushes at the tail, the owning tile peeks and pops at the head. The
// paper (§II-C) guards each end with its own lock; what it requires is
// that the two threads never lose or reorder flits. A single-producer/
// single-consumer ring gives the same guarantee without locks: each end
// owns its ring index and a cumulative counter, and publishes the counter
// with an atomic store only after it has finished with the slot. The
// consumer reads a slot only below the published push count; the producer
// writes a slot only when the credit rule below says it was popped.
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
type VCBuffer struct {
	buf []Flit

	tail   int           // next push position (producer-owned)
	pushes atomic.Uint64 // cumulative pushes, stored after the slot write

	head int           // next pop position (consumer-owned)
	pops atomic.Uint64 // cumulative pops, stored after the slot read

	// committedPops is the consumer's last committed snapshot of pops,
	// read by the producer.
	committedPops atomic.Uint64
}

// NewVCBuffer returns an empty buffer holding up to capacity flits.
func NewVCBuffer(capacity int) *VCBuffer {
	if capacity < 1 {
		panic("noc: VC buffer capacity must be >= 1")
	}
	return &VCBuffer{buf: make([]Flit, capacity)}
}

// Capacity returns the buffer's flit capacity.
func (b *VCBuffer) Capacity() int { return len(b.buf) }

// Len returns the instantaneous number of flits resident (diagnostic; the
// router's credit logic uses CommittedPops instead). Loading pops first
// keeps the difference non-negative from any thread.
func (b *VCBuffer) Len() int {
	pops := b.pops.Load()
	return int(b.pushes.Load() - pops)
}

// CommittedPops returns the consumer's committed cumulative pop count.
func (b *VCBuffer) CommittedPops() uint64 { return b.committedPops.Load() }

// Push appends a flit (producer side). It returns false if the buffer is
// physically full, which indicates a flow-control bug in the caller: the
// router must never push without a credit.
func (b *VCBuffer) Push(f Flit) bool {
	pushes := b.pushes.Load()
	if int(pushes-b.pops.Load()) == len(b.buf) {
		return false
	}
	b.buf[b.tail] = f
	b.tail++
	if b.tail == len(b.buf) {
		b.tail = 0
	}
	b.pushes.Store(pushes + 1)
	return true
}

// Peek returns a pointer to the head flit if one is present and visible at
// the given cycle. The pointer is valid until the next Pop and may be used
// by the owning tile to inspect (never to remove) the flit.
func (b *VCBuffer) Peek(cycle uint64) (*Flit, bool) {
	if b.pushes.Load() == b.pops.Load() {
		return nil, false
	}
	f := &b.buf[b.head]
	// VisibleAt values are monotone along the queue (producer clock never
	// decreases), so checking only the head suffices.
	if f.VisibleAt > cycle {
		return nil, false
	}
	return f, true
}

// Pop removes and returns the head flit (consumer side). The caller must
// have established non-emptiness via Peek in the same phase.
func (b *VCBuffer) Pop() Flit {
	f := b.buf[b.head]
	b.head++
	if b.head == len(b.buf) {
		b.head = 0
	}
	b.pops.Store(b.pops.Load() + 1)
	return f
}

// Commit publishes the consumer's pops (negative clock edge). Only the
// owning tile calls this, at most once per simulated cycle.
func (b *VCBuffer) Commit() {
	b.committedPops.Store(b.pops.Load())
}

// flitAt returns the i-th resident flit counted from the head (consumer
// side). Only used at quiescent points (checkpointing), never during a
// timed run.
func (b *VCBuffer) flitAt(i int) Flit {
	return b.buf[(b.head+i)%len(b.buf)]
}

// Drain removes all resident flits regardless of visibility (used by
// tests and by reset paths, never during a timed run).
func (b *VCBuffer) Drain() []Flit {
	var out []Flit
	for b.Len() > 0 {
		out = append(out, b.Pop())
	}
	b.Commit()
	return out
}
