package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// parkCost is how long a waiting party polls before it parks: the
// measured cost of parking itself. Waking a goroutine parked on a
// sync.Cond takes a futex wake on the releaser's critical path and, once
// the waiter's thread has gone to sleep, a median of 72-112 µs (90th
// percentile 77-153 µs, by how busy the host is) until it runs again on
// the 2-vCPU benchmark host (BENCH_PR13.json, "park_wake";
// BenchmarkBarrier's forced-park case measures it). Polling for as long as parking would cost and parking only
// then is the classic 2-competitive rule: a wait never costs more than
// twice what the better of "always poll" and "always park" would have
// paid for it, and a party never burns more than parkCost of CPU on an
// imbalance of any length.
const parkCost = 100 * time.Microsecond

// pollBurst is how many times a waiter reads the generation word between
// looks at the clock and yields to the scheduler. It sets only the
// granularity of the time bound, never its length: a burst is about a
// microsecond and a half on the benchmark host, ten times what the clock
// read and the yield after it cost, so a poller spends nearly all of its
// time polling and still yields over half a million times a second.
const pollBurst = 4096

// cacheLine separates words written at different rates; 64 bytes on every
// platform the simulator is built for.
const cacheLine = 64

// Barrier is a reusable generation-counting barrier for a fixed party
// count. The last thread to arrive optionally executes an action while all
// other parties are blocked, which the engine uses for global decisions
// that must happen at a quiescent point (fast-forward target election,
// epoch rollover, stop checks).
//
// A waiting party polls the generation word in short bursts, yielding to
// the Go scheduler between bursts so that a spinner never starves GC
// workers or other goroutines, and parks on a sync.Cond only once it has
// waited parkCost. With balanced partitions every wait is resolved by
// polling and the releaser touches neither the mutex nor the futex; with
// imbalanced ones the waiter's CPU is given up after a bounded time.
type Barrier struct {
	parties int32
	// pollFor is parkCost, or zero when the parties cannot all run at once
	// and every wait parks at once (tests set it to force the park path).
	pollFor time.Duration

	mu   sync.Mutex
	cond sync.Cond
	// parks counts waits that ended on the park path. Polled waits are not
	// counted one by one — that would be a shared write per wait — but
	// follow from the generation count.
	parks atomic.Uint64

	// Every arrival is a read-modify-write of arrived; every poll reads
	// gen. They sit on separate cache lines so that arrivals do not
	// invalidate the line the spinners are polling.
	_       [cacheLine]byte
	arrived atomic.Int32
	_       [cacheLine]byte
	// gen counts completed generations; storing it releases the pollers.
	// sleepers (parties on the park path) and broken change rarely and are
	// read next to gen, so they share its line.
	gen      atomic.Uint64
	sleepers atomic.Int32
	broken   atomic.Bool
	_        [cacheLine]byte
}

// NewBarrier returns a barrier for n parties. n must be >= 1.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("sim: barrier party count must be >= 1")
	}
	b := &Barrier{parties: int32(n), pollFor: parkCost}
	if runtime.GOMAXPROCS(0) < n {
		// Oversubscribed host: the parties we would poll for cannot even
		// be scheduled while we hold the CPU, so polling only delays
		// them. Park straight away instead.
		b.pollFor = 0
	}
	b.cond.L = &b.mu
	return b
}

// Parties returns the number of participating threads.
func (b *Barrier) Parties() int { return int(b.parties) }

// Parks returns how many waits so far gave up polling and parked.
func (b *Barrier) Parks() uint64 { return b.parks.Load() }

// Polled returns how many waits so far were resolved by polling alone.
// Exact whenever no party is inside Await.
func (b *Barrier) Polled() uint64 {
	return b.gen.Load()*uint64(b.parties-1) - b.parks.Load()
}

// Break releases every party blocked in Await, polling or parked, and
// makes every Await, those and all later ones, report false without
// running its action. A party that cannot reach the barrier any more (its
// goroutine is unwinding from a panic) calls it so the others are not left
// waiting for it.
func (b *Barrier) Break() {
	b.broken.Store(true)
	b.wakeSleepers()
}

// wakeSleepers wakes every parked party to look at gen and broken again.
// Taking mu orders the broadcast after a party that has checked them and
// is about to wait.
func (b *Barrier) wakeSleepers() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Await blocks until all parties have called Await. If action is non-nil
// it is executed exactly once per barrier generation, by the last arriver,
// before the others are released. met reports whether the parties really
// met: false means the barrier was broken, nothing orders the caller
// against the other parties any more, and it must stop stepping. parked
// reports whether this party's wait gave up polling and parked.
func (b *Barrier) Await(action func()) (met, parked bool) {
	if b.broken.Load() {
		return false, false
	}
	if b.parties == 1 {
		if action != nil {
			action()
		}
		return true, false
	}
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.parties {
		if action != nil {
			action()
		}
		b.arrived.Store(0)
		b.gen.Store(gen + 1)
		// A party on its way to park either sees the new generation or has
		// announced itself in sleepers before this load (both are
		// sequentially consistent), so nobody is left asleep.
		if b.sleepers.Load() != 0 {
			b.wakeSleepers()
		}
		return true, false
	}
	if b.pollFor == 0 || !b.poll(gen) {
		parked = true
		b.sleepers.Add(1)
		b.mu.Lock()
		for b.gen.Load() == gen && !b.broken.Load() {
			b.cond.Wait()
		}
		b.mu.Unlock()
		b.sleepers.Add(-1)
		b.parks.Add(1)
	}
	return !b.broken.Load(), parked
}

// poll waits for generation gen to complete (or the barrier to break) for
// at most pollFor, and reports whether it did. With balanced partitions
// the first burst sees the release, so the clock is first read after it.
func (b *Barrier) poll(gen uint64) bool {
	var start time.Time
	for {
		for i := 0; i < pollBurst; i++ {
			if b.gen.Load() != gen {
				return true
			}
		}
		if b.broken.Load() {
			return true
		}
		if start.IsZero() {
			start = time.Now()
		} else if time.Since(start) >= b.pollFor {
			// Look once more: had this thread been descheduled between
			// the burst and the clock read, the time it was off the CPU
			// would otherwise count as time spent waiting.
			return b.gen.Load() != gen
		}
		runtime.Gosched()
	}
}
