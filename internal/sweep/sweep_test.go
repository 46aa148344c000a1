package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hornet/internal/sim"
)

func noopItems(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Key: fmt.Sprintf("run%02d", i),
			Run: func(ctx Ctx) (any, error) { return ctx.Seed, nil },
		}
	}
	return items
}

// Per-run seeds must be a pure function of (sweep seed, key): identical
// across worker counts, stable across runs, distinct across keys.
func TestDeterministicSeedDerivation(t *testing.T) {
	items := noopItems(16)
	ref := Run(context.Background(), items, Config{Workers: 1, Seed: 7})
	for _, workers := range []int{2, 4, 16} {
		got := Run(context.Background(), items, Config{Workers: workers, Seed: 7})
		for i := range ref {
			if got[i].Key != ref[i].Key || got[i].Seed != ref[i].Seed {
				t.Fatalf("workers=%d run %d: got (%s,%#x), want (%s,%#x)",
					workers, i, got[i].Key, got[i].Seed, ref[i].Key, ref[i].Seed)
			}
			if got[i].Value.(uint64) != got[i].Seed {
				t.Fatalf("run %d did not receive its derived seed", i)
			}
		}
	}
	seen := map[uint64]string{}
	for _, r := range ref {
		if prev, dup := seen[r.Seed]; dup {
			t.Fatalf("keys %q and %q derived the same seed %#x", prev, r.Key, r.Seed)
		}
		seen[r.Seed] = r.Key
	}
	if ref[0].Seed != sim.DeriveSeed(7, "run00") {
		t.Fatalf("seed not derived via sim.DeriveSeed")
	}
	other := Run(context.Background(), items[:1], Config{Workers: 1, Seed: 8})
	if other[0].Seed == ref[0].Seed {
		t.Fatal("different sweep seeds derived identical run seeds")
	}
}

func TestResultsOrderedByIndex(t *testing.T) {
	items := make([]Item, 12)
	for i := range items {
		d := time.Duration(len(items)-i) * time.Millisecond
		items[i] = Item{
			Key: fmt.Sprintf("run%02d", i),
			Run: func(ctx Ctx) (any, error) {
				time.Sleep(d) // later items finish first
				return ctx.Index, nil
			},
		}
	}
	results := Run(context.Background(), items, Config{Workers: 4, Seed: 1})
	for i, r := range results {
		if r.Index != i || r.Value.(int) != i {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
}

// The CPU budget is a hard cap: runs of weight W hold W slots, so
// concurrently held slots never exceed the budget even when the worker
// pool could dispatch more.
func TestBudgetAccounting(t *testing.T) {
	const budget = 4
	var held atomic.Int64
	var peak atomic.Int64
	items := make([]Item, 24)
	for i := range items {
		w := 1 + i%3 // weights 1, 2, 3
		items[i] = Item{
			Key:    fmt.Sprintf("run%02d/w%d", i, w),
			Weight: w,
			Run: func(ctx Ctx) (any, error) {
				if ctx.Workers != w {
					return nil, fmt.Errorf("granted %d slots, want %d", ctx.Workers, w)
				}
				h := held.Add(int64(ctx.Workers))
				for {
					p := peak.Load()
					if h <= p || peak.CompareAndSwap(p, h) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				held.Add(-int64(ctx.Workers))
				return nil, nil
			},
		}
	}
	for _, r := range Run(context.Background(), items, Config{Workers: 16, Budget: budget, Seed: 1}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if p := peak.Load(); p > budget {
		t.Fatalf("peak held slots %d exceeds budget %d", p, budget)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak held slots %d: budget never shared", p)
	}
}

// A run asking for more workers than the whole budget is clamped, not
// deadlocked; a weight of zero still occupies one slot.
func TestBudgetClamping(t *testing.T) {
	b := NewBudget(2)
	if got, _ := b.AcquireCtx(context.Background(), 10); got != 2 {
		t.Fatalf("Acquire(10) granted %d, want 2", got)
	}
	b.Release(2)
	if got, _ := b.AcquireCtx(context.Background(), 0); got != 1 {
		t.Fatalf("Acquire(0) granted %d, want 1", got)
	}
	b.Release(1)
	if b.InUse() != 0 {
		t.Fatalf("slots leaked: %d in use", b.InUse())
	}
}

func TestBudgetBlocksUntilReleased(t *testing.T) {
	b := NewBudget(1)
	b.AcquireCtx(context.Background(), 1)
	acquired := make(chan struct{})
	go func() {
		b.AcquireCtx(context.Background(), 1)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second Acquire succeeded while budget was full")
	case <-time.After(10 * time.Millisecond):
	}
	b.Release(1)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("Acquire never unblocked after Release")
	}
}

func TestPanicBecomesError(t *testing.T) {
	items := []Item{
		{Key: "ok", Run: func(Ctx) (any, error) { return 1, nil }},
		{Key: "boom", Run: func(Ctx) (any, error) { panic("kaboom") }},
		{Key: "fail", Run: func(Ctx) (any, error) { return nil, errors.New("nope") }},
	}
	results := Run(context.Background(), items, Config{Workers: 3, Seed: 1})
	if results[0].Err != nil {
		t.Fatalf("ok run errored: %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %v", results[1].Err)
	}
	if results[2].Err == nil {
		t.Fatal("error dropped")
	}
	if _, err := Collect[int](results); err == nil {
		t.Fatal("Collect ignored run errors")
	}
	if rows, err := Collect[int](results[:1]); err != nil || len(rows) != 1 || rows[0] != 1 {
		t.Fatalf("Collect = %v, %v", rows, err)
	}
}

func TestProgressCallbackSerializedAndComplete(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	lastDone := 0
	cfg := Config{Workers: 8, Seed: 1, OnProgress: func(done, total int, r Result) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done != lastDone+1 || total != 20 {
			t.Errorf("progress (%d,%d) out of sequence after %d", done, total, lastDone)
		}
		lastDone = done
	}}
	Run(context.Background(), noopItems(20), cfg)
	if calls != 20 {
		t.Fatalf("progress called %d times, want 20", calls)
	}
}

func TestStreamDeliversAll(t *testing.T) {
	seen := map[string]bool{}
	for r := range Stream(context.Background(), noopItems(10), Config{Workers: 3, Seed: 1}) {
		seen[r.Key] = true
	}
	if len(seen) != 10 {
		t.Fatalf("stream delivered %d distinct runs, want 10", len(seen))
	}
}

func TestConfigHashStability(t *testing.T) {
	type id struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	a := ConfigHash("fig8", id{"radix", 3})
	b := ConfigHash("fig8", id{"radix", 3})
	if a != b {
		t.Fatalf("hash not deterministic: %s vs %s", a, b)
	}
	if c := ConfigHash("fig8", id{"radix", 4}); c == a {
		t.Fatal("different configs hashed equal")
	}
	if c := ConfigHash("fig9", id{"radix", 3}); c == a {
		t.Fatal("different names hashed equal")
	}
	// Concatenation boundaries matter: ("ab","c") must differ from ("a","bc").
	if ConfigHash("ab", "c") == ConfigHash("a", "bc") {
		t.Fatal("hash ignores value boundaries")
	}
	if len(a) != 16 {
		t.Fatalf("hash %q not 16 hex digits", a)
	}
}

// Golden test: the emitted document bytes are part of the caching
// contract — per-run records in item order, stable field order, no
// wall-clock or worker fields.
func TestWriteJSONGolden(t *testing.T) {
	results := []Result{
		{Index: 0, Key: "fig/a", Seed: 1, Value: map[string]any{"latency": 12.5}},
		{Index: 1, Key: "fig/b", Seed: 2, Err: errors.New("boom"), Wall: time.Second, Workers: 3},
	}
	doc := NewDocument("fig", "00000000deadbeef", 42, results)
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "name": "fig",
  "config_hash": "00000000deadbeef",
  "seed": 42,
  "runs": [
    {
      "key": "fig/a",
      "seed": 1,
      "value": {
        "latency": 12.5
      }
    },
    {
      "key": "fig/b",
      "seed": 2,
      "err": "boom"
    }
  ]
}
`
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := Cache{Dir: dir}
	if _, ok, err := c.Load("fig", "abc"); err != nil || ok {
		t.Fatalf("empty cache Load = %v, %v", ok, err)
	}
	doc := NewDocument("fig", "abc", 7, []Result{{Key: "k", Seed: 9, Value: "v"}})
	if err := c.Store(doc); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Load("fig", "abc")
	if err != nil || !ok {
		t.Fatalf("Load after Store = %v, %v", ok, err)
	}
	if got.Seed != 7 || len(got.Runs) != 1 || got.Runs[0].Key != "k" || got.Runs[0].Value != "v" {
		t.Fatalf("round trip mangled document: %+v", got)
	}
	if _, ok, _ := c.Load("fig", "other"); ok {
		t.Fatal("Load hit on wrong hash")
	}
}

func TestPairSeedGroupsRuns(t *testing.T) {
	a := PairSeed(5, "fig7", "bitcomp", 2)
	b := PairSeed(5, "fig7", "bitcomp", 2)
	if a != b {
		t.Fatal("PairSeed not deterministic")
	}
	if PairSeed(5, "fig7", "bitcomp", 4) == a {
		t.Fatal("PairSeed ignores parts")
	}
	if PairSeed(6, "fig7", "bitcomp", 2) == a {
		t.Fatal("PairSeed ignores base")
	}
}
