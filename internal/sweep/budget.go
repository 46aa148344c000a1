package sweep

import (
	"context"
	"sync"
)

// Budget is a counting semaphore over host CPU slots, shared by every run
// of a sweep — or, via Config.Pool, by every run of several concurrent
// sweeps. A run that will start W engine workers acquires W slots up
// front and holds them for its duration, so the total number of busy
// simulation threads — across all concurrently executing configurations —
// never exceeds the budget. This is what lets a sweep safely mix
// single-threaded runs with runs that are themselves parallel, and what
// lets a serving daemon run many jobs without oversubscribing the host.
type Budget struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	used int
	peak int
}

// NewBudget returns a budget of n slots. n < 1 is treated as 1.
func NewBudget(n int) *Budget {
	if n < 1 {
		n = 1
	}
	b := &Budget{cap: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Cap returns the total slot count.
func (b *Budget) Cap() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cap
}

// InUse returns the number of slots currently held.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Peak returns the high-water mark of concurrently held slots since the
// budget was created. Acquisitions never push the in-use count past the
// capacity, so Peak never exceeds Cap — tests and monitoring use it to
// show the cap actually bound the workload.
func (b *Budget) Peak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// AcquireCtx blocks until w slots are free and takes them, returning the
// number actually granted: requests are clamped to [1, Cap], so a run
// asking for more workers than the host has budget for is granted the
// whole budget rather than deadlocking. A caller blocked waiting for
// slots gives up when ctx is cancelled, returning 0 and ctx.Err(). Slots
// already free are granted even if ctx is already cancelled-concurrently;
// the caller that receives slots must Release them.
func (b *Budget) AcquireCtx(ctx context.Context, w int) (int, error) {
	w = min(max(w, 1), b.cap) // the capacity never changes after NewBudget
	if ctx == nil {
		ctx = context.Background()
	}
	b.mu.Lock()
	if b.used+w > b.cap {
		// Slow path: wait on the condition variable, waking on every
		// Release and on context cancellation. The AfterFunc takes the
		// lock before broadcasting so a waiter cannot check ctx.Err(),
		// release the lock inside Wait, and miss the wakeup.
		stop := context.AfterFunc(ctx, func() {
			b.mu.Lock()
			//lint:ignore SA2001 empty critical section orders the broadcast after Wait's unlock
			b.mu.Unlock()
			b.cond.Broadcast()
		})
		defer stop()
		for b.used+w > b.cap {
			if err := ctx.Err(); err != nil {
				b.mu.Unlock()
				return 0, err
			}
			b.cond.Wait()
		}
	}
	b.used += w
	if b.used > b.peak {
		b.peak = b.used
	}
	b.mu.Unlock()
	return w, nil
}

// Release returns w previously acquired slots to the pool.
func (b *Budget) Release(w int) {
	if w < 1 {
		return
	}
	b.mu.Lock()
	if w > b.used {
		panic("sweep: Budget.Release of more slots than acquired")
	}
	b.used -= w
	b.mu.Unlock()
	b.cond.Broadcast()
}
