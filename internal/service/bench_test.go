package service_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"hornet/internal/config"
	"hornet/internal/service"
	"hornet/internal/service/client"
)

// BenchmarkCachedScenarioRoundTrip measures the full serving path for a
// warm scenario: HTTP submit -> scheduler -> cache hit -> long-poll ->
// result fetch. This is the steady-state cost of repeated traffic.
func BenchmarkCachedScenarioRoundTrip(b *testing.B) {
	srv := mustServer(b, service.Options{MaxJobs: 1, Budget: 1})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	c := client.New(ts.URL)
	ctx := context.Background()

	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.05}}
	cfg.WarmupCycles = 100
	cfg.AnalyzedCycles = 1_000
	req := service.SubmitRequest{Name: "bench", Config: &cfg}

	// Warm the cache once (the only actual simulation).
	if info, err := c.SubmitAndWait(ctx, req); err != nil || info.State != service.StateDone {
		b.Fatalf("warmup job: %+v, %v", info, err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		info, err := c.SubmitAndWait(ctx, req)
		if err != nil || info.State != service.StateDone || !info.CacheHit {
			b.Fatalf("cached round trip: %+v, %v", info, err)
		}
		if _, _, err := c.Result(ctx, info.ID); err != nil {
			b.Fatal(err)
		}
	}
}
