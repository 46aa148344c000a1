package sweep

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkBudgetAcquireRelease measures the per-run cost of the shared
// CPU-slot accounting every sweep and every hornet-serve job pays.
func BenchmarkBudgetAcquireRelease(b *testing.B) {
	budget := NewBudget(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, _ := budget.AcquireCtx(context.Background(), 2)
		budget.Release(g)
	}
}

// BenchmarkStreamNoop isolates dispatch + seed derivation + result
// streaming for no-op runs (the engine overhead floor).
func BenchmarkStreamNoop(b *testing.B) {
	items := make([]Item, 128)
	for i := range items {
		items[i] = Item{
			Key: fmt.Sprintf("noop/%03d", i),
			Run: func(c Ctx) (any, error) { return c.Seed, nil },
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for range Stream(context.Background(), items, Config{Workers: 4, Seed: 1}) {
		}
	}
}
