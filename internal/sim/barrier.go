package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Barrier is a reusable sense-reversing barrier for a fixed party count.
// The last thread to arrive optionally executes an action while all other
// parties are blocked, which the engine uses for global decisions that
// must happen at a quiescent point (fast-forward target election,
// epoch rollover, stop checks).
//
// The implementation spins briefly before falling back to a mutex+cond
// sleep, which keeps barrier cost low when workers arrive nearly together
// (the common case for balanced tile partitions) without burning CPU when
// they do not.
type Barrier struct {
	parties int32
	spin    int
	arrived atomic.Int32
	sense   atomic.Uint32
	broken  atomic.Bool

	mu   sync.Mutex
	cond *sync.Cond
}

// NewBarrier returns a barrier for n parties. n must be >= 1.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("sim: barrier party count must be >= 1")
	}
	b := &Barrier{parties: int32(n), spin: 4096}
	if runtime.GOMAXPROCS(0) < n {
		// Oversubscribed host: the parties we would spin for cannot even
		// be scheduled while we burn the CPU, so spinning only delays
		// them. Yield straight into the sleep path instead.
		b.spin = 0
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Parties returns the number of participating threads.
func (b *Barrier) Parties() int { return int(b.parties) }

// Break releases every party blocked in Await and makes every Await, those
// and all later ones, report false without running its action. A party
// that cannot reach the barrier any more (its goroutine is unwinding from
// a panic) calls it so the others are not left waiting for it.
func (b *Barrier) Break() {
	b.mu.Lock()
	b.broken.Store(true)
	b.sense.Add(1)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Await blocks until all parties have called Await. If action is non-nil
// it is executed exactly once per barrier generation, by the last arriver,
// before the others are released. It reports whether the parties really
// met: false means the barrier was broken, nothing orders the caller
// against the other parties any more, and it must stop stepping.
func (b *Barrier) Await(action func()) bool {
	if b.broken.Load() {
		return false
	}
	if b.parties == 1 {
		if action != nil {
			action()
		}
		return true
	}
	sense := b.sense.Load()
	if b.arrived.Add(1) == b.parties {
		if action != nil {
			action()
		}
		b.arrived.Store(0)
		b.mu.Lock()
		b.sense.Store(sense + 1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return true
	}
	// Spin briefly: with balanced partitions the other workers arrive
	// within a few hundred nanoseconds.
	for i := 0; i < b.spin; i++ {
		if b.sense.Load() != sense {
			return !b.broken.Load()
		}
	}
	runtime.Gosched()
	if b.sense.Load() != sense {
		return !b.broken.Load()
	}
	b.mu.Lock()
	for b.sense.Load() == sense {
		b.cond.Wait()
	}
	b.mu.Unlock()
	return !b.broken.Load()
}
