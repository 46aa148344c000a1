package sweep

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Cancelling a sweep mid-flight stops dispatch: completed runs are
// returned intact, undispatched items never start, and the result channel
// still closes (no goroutine leak, no hang).
func TestRunCancelledMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	items := make([]Item, 32)
	for i := range items {
		items[i] = Item{
			Key: fmt.Sprintf("run%02d", i),
			Run: func(c Ctx) (any, error) {
				started.Add(1)
				<-release
				return c.Index, nil
			},
		}
	}
	done := make(chan []Result, 1)
	go func() { done <- Run(ctx, items, Config{Workers: 2, Seed: 1}) }()

	// Wait for the first runs to start, then cancel and let them drain.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)

	var results []Result
	select {
	case results = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if len(results) == len(items) {
		t.Fatal("cancellation did not truncate the sweep")
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("completed run %q carries error: %v", r.Key, r.Err)
		}
		if r.Value.(int) != r.Index {
			t.Fatalf("completed run %q mangled: %+v", r.Key, r)
		}
	}
	if n := int(started.Load()); n < len(results) {
		t.Fatalf("%d results from %d started runs", len(results), n)
	}
}

// A sweep whose context is cancelled before it starts runs nothing.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	items := []Item{{Key: "a", Run: func(Ctx) (any, error) { ran.Add(1); return nil, nil }}}
	if got := Run(ctx, items, Config{Workers: 1, Seed: 1}); len(got) != 0 {
		t.Fatalf("pre-cancelled sweep returned %d results", len(got))
	}
	if ran.Load() != 0 {
		t.Fatal("pre-cancelled sweep executed a run")
	}
}

// Runs receive the sweep's context so they can exit early themselves.
func TestCtxCarriesContext(t *testing.T) {
	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "hello")
	items := []Item{{Key: "a", Run: func(c Ctx) (any, error) {
		if c.Context == nil || c.Context.Value(ctxKey{}) != "hello" {
			return nil, fmt.Errorf("run did not receive the sweep context")
		}
		return nil, nil
	}}}
	for _, r := range Run(ctx, items, Config{Workers: 1, Seed: 1}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// AcquireCtx gives up when the context is cancelled while waiting, and
// the budget stays consistent afterwards.
func TestAcquireCtxCancelled(t *testing.T) {
	b := NewBudget(1)
	if got, err := b.AcquireCtx(context.Background(), 1); err != nil || got != 1 {
		t.Fatalf("AcquireCtx on empty budget = %d, %v", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.AcquireCtx(ctx, 1)
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("AcquireCtx returned %v while budget was full", err)
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("AcquireCtx error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireCtx never observed cancellation")
	}
	b.Release(1)
	if got, err := b.AcquireCtx(context.Background(), 1); err != nil || got != 1 {
		t.Fatalf("budget unusable after cancelled waiter: %d, %v", got, err)
	}
	b.Release(1)
	if b.InUse() != 0 {
		t.Fatalf("slots leaked: %d in use", b.InUse())
	}
}

// Peak records the high-water mark and never exceeds the capacity.
func TestBudgetPeak(t *testing.T) {
	b := NewBudget(4)
	if b.Peak() != 0 {
		t.Fatalf("fresh budget peak = %d", b.Peak())
	}
	b.AcquireCtx(context.Background(), 3)
	b.Release(3)
	b.AcquireCtx(context.Background(), 2)
	if got := b.Peak(); got != 3 {
		t.Fatalf("peak = %d, want 3", got)
	}
	b.Release(2)
	if b.Peak() > b.Cap() {
		t.Fatalf("peak %d exceeds cap %d", b.Peak(), b.Cap())
	}
}

// Two sweeps sharing one Pool never hold more slots together than the
// pool's capacity — the property the serving daemon's scheduler relies
// on to run concurrent jobs without oversubscribing the host.
func TestSharedPoolBoundsConcurrentSweeps(t *testing.T) {
	const cap = 3
	pool := NewBudget(cap)
	var held, peak atomic.Int64
	mkItems := func(tag string) []Item {
		items := make([]Item, 12)
		for i := range items {
			items[i] = Item{
				Key:    fmt.Sprintf("%s/run%02d", tag, i),
				Weight: 1 + i%2,
				Run: func(c Ctx) (any, error) {
					h := held.Add(int64(c.Workers))
					for {
						p := peak.Load()
						if h <= p || peak.CompareAndSwap(p, h) {
							break
						}
					}
					time.Sleep(time.Millisecond)
					held.Add(-int64(c.Workers))
					return nil, nil
				},
			}
		}
		return items
	}
	done := make(chan []Result, 2)
	for _, tag := range []string{"a", "b"} {
		items := mkItems(tag)
		go func() {
			done <- Run(context.Background(), items, Config{Workers: 4, Pool: pool, Seed: 1})
		}()
	}
	for i := 0; i < 2; i++ {
		for _, r := range <-done {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	if p := peak.Load(); p > cap {
		t.Fatalf("two sweeps held %d slots together, pool cap %d", p, cap)
	}
	if got := pool.Peak(); got > cap {
		t.Fatalf("pool peak %d exceeds cap %d", got, cap)
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool leaked %d slots", pool.InUse())
	}
}

// A zero-item sweep completes immediately (no hang on the empty pool).
func TestRunZeroItems(t *testing.T) {
	if got := Run(context.Background(), nil, Config{Workers: 4, Seed: 1}); len(got) != 0 {
		t.Fatalf("zero-item sweep returned %d results", len(got))
	}
}
