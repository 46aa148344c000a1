// End-to-end tests for hornet-serve: an in-process daemon exercised
// through the public Go client over real HTTP. The scenarios are tiny
// (4x4 meshes, short windows) so the whole file stays fast under
// -short -race on a single-core host.
package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/service"
	"hornet/internal/service/client"
)

// tinyConfig is a fast, valid network-only scenario.
func tinyConfig() *config.Config {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.05}}
	cfg.WarmupCycles = 200
	cfg.AnalyzedCycles = 2_000
	return &cfg
}

// mustServer builds a daemon through NewDurable and fails the test on an
// error.
func mustServer(t testing.TB, opts service.Options) *service.Server {
	t.Helper()
	srv, err := service.NewDurable(opts)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	return srv
}

// startServer spins up an in-process daemon and a client for it.
func startServer(t *testing.T, opts service.Options) (*service.Server, *client.Client) {
	t.Helper()
	srv := mustServer(t, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, client.New(ts.URL)
}

// The headline contract: submitting the same scenario twice executes
// once — the second job is served from the content-addressed cache, and
// both responses carry byte-identical document JSON.
func TestRepeatScenarioServedFromCacheByteIdentical(t *testing.T) {
	srv, c := startServer(t, service.Options{MaxJobs: 2, Budget: 2})
	ctx := context.Background()

	req := service.SubmitRequest{Name: "uniform-4x4", Config: tinyConfig(), Seed: 42}

	first, err := c.SubmitAndWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != service.StateDone {
		t.Fatalf("first job state = %s (%s)", first.State, first.Error)
	}
	if first.CacheHit {
		t.Fatal("first run of a scenario reported a cache hit")
	}
	doc1, raw1, err := c.Result(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc1.Runs) != 1 || doc1.Runs[0].Err != "" {
		t.Fatalf("unexpected document: %+v", doc1)
	}
	if doc1.Name != "uniform-4x4" || doc1.ConfigHash != first.ConfigHash {
		t.Fatalf("document identity mismatch: %s/%s vs job %s", doc1.Name, doc1.ConfigHash, first.ConfigHash)
	}

	second, err := c.SubmitAndWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != service.StateDone {
		t.Fatalf("second job state = %s (%s)", second.State, second.Error)
	}
	if !second.CacheHit {
		t.Fatal("repeated scenario was not served from the cache")
	}
	if second.ConfigHash != first.ConfigHash {
		t.Fatalf("same scenario hashed differently: %s vs %s", second.ConfigHash, first.ConfigHash)
	}
	_, raw2, err := c.Result(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("cached response not byte-identical:\n cold: %s\n warm: %s", raw1, raw2)
	}

	st := srv.Stats()
	if st.CacheHits < 1 {
		t.Fatalf("stats recorded no cache hit: %+v", st)
	}
}

// The cache identity is content-addressed over what determines results:
// execution knobs (engine worker count) must not shift the hash, while a
// different seed must.
func TestCacheKeyNormalization(t *testing.T) {
	_, c := startServer(t, service.Options{MaxJobs: 1, Budget: 2})
	ctx := context.Background()

	base := tinyConfig()
	a, err := c.Submit(ctx, service.SubmitRequest{Config: base, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	withWorkers := tinyConfig()
	withWorkers.Engine.Workers = 2
	b, err := c.Submit(ctx, service.SubmitRequest{Config: withWorkers, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.ConfigHash != b.ConfigHash {
		t.Fatalf("worker count changed the cache key: %s vs %s", a.ConfigHash, b.ConfigHash)
	}
	otherSeed, err := c.Submit(ctx, service.SubmitRequest{Config: base, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if otherSeed.ConfigHash == a.ConfigHash {
		t.Fatal("different seeds produced the same cache key")
	}
	// Parallelism must not change result bytes either: the workers=2 job
	// (submitted before the cache was warm) must produce the exact bytes
	// the workers=1 job produced, whichever ran first.
	ia, err := c.Wait(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := c.Wait(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ia.State != service.StateDone || ib.State != service.StateDone {
		t.Fatalf("jobs did not finish: %s/%s", ia.State, ib.State)
	}
	_, rawA, err := c.Result(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, rawB, err := c.Result(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Fatal("engine parallelism changed result document bytes")
	}
}

// Two concurrent jobs draw every engine worker from one shared budget:
// together they never hold more CPU slots than the configured cap.
func TestConcurrentJobsShareBudget(t *testing.T) {
	const budget = 2
	srv, c := startServer(t, service.Options{MaxJobs: 2, Budget: budget})
	ctx := context.Background()

	// Each job is a 3-run batch asking for 2 workers per run: plenty of
	// demand to exceed the budget if jobs did not share it.
	mkBatch := func(tag string) service.SubmitRequest {
		var items []service.BatchItem
		for i, rate := range []float64{0.02, 0.04, 0.06} {
			cfg := *tinyConfig()
			cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: rate}}
			items = append(items, service.BatchItem{
				Key:    fmt.Sprintf("%s-%d", tag, i),
				Config: cfg,
			})
		}
		return service.SubmitRequest{Name: "budget-" + tag, Batch: items, Workers: 2}
	}

	ja, err := c.Submit(ctx, mkBatch("a"))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := c.Submit(ctx, mkBatch("b"))
	if err != nil {
		t.Fatal(err)
	}
	ia, err := c.Wait(ctx, ja.ID)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := c.Wait(ctx, jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ia.State != service.StateDone || ib.State != service.StateDone {
		t.Fatalf("jobs did not finish: %s (%s) / %s (%s)", ia.State, ia.Error, ib.State, ib.Error)
	}

	st := srv.Stats()
	if st.BudgetCap != budget {
		t.Fatalf("budget cap = %d, want %d", st.BudgetCap, budget)
	}
	if st.BudgetPeak > budget {
		t.Fatalf("concurrent jobs held %d slots together, budget %d", st.BudgetPeak, budget)
	}
	if st.BudgetPeak < 1 {
		t.Fatalf("budget never used (peak %d)", st.BudgetPeak)
	}
	if st.BudgetInUse != 0 {
		t.Fatalf("budget leaked: %d slots still held", st.BudgetInUse)
	}
}

// Bad submissions are rejected with structured 4xx errors that carry the
// validation message.
func TestValidationErrors(t *testing.T) {
	_, c := startServer(t, service.Options{MaxJobs: 1, Budget: 1})
	ctx := context.Background()

	cases := []struct {
		name     string
		req      service.SubmitRequest
		code     string
		contains string
	}{
		{"nothing set", service.SubmitRequest{}, service.CodeInvalidRequest, "exactly one"},
		{"two scenarios", service.SubmitRequest{Config: tinyConfig(), Figure: "8"},
			service.CodeInvalidRequest, "exactly one"},
		{"bad name", service.SubmitRequest{Name: "no spaces!", Config: tinyConfig()},
			service.CodeInvalidRequest, "name"},
		{"unknown figure", service.SubmitRequest{Figure: "99z"},
			service.CodeUnknownFigure, "99z"},
		{"tiny and full", service.SubmitRequest{Figure: "t1", Tiny: true, Full: true},
			service.CodeInvalidRequest, "mutually exclusive"},
		{"no traffic", service.SubmitRequest{Config: func() *config.Config {
			cfg := tinyConfig()
			cfg.Traffic = nil
			return cfg
		}()}, service.CodeInvalidConfig, "traffic"},
		{"invalid topology", service.SubmitRequest{Config: func() *config.Config {
			cfg := tinyConfig()
			cfg.Topology.Kind = "blob"
			return cfg
		}()}, service.CodeInvalidConfig, "blob"},
		{"zero window", service.SubmitRequest{Config: func() *config.Config {
			cfg := tinyConfig()
			cfg.AnalyzedCycles = 0
			return cfg
		}()}, service.CodeInvalidConfig, "analyzed_cycles"},
		{"bad batch key", service.SubmitRequest{Batch: []service.BatchItem{
			{Key: "bad key!", Config: *tinyConfig()},
		}}, service.CodeInvalidRequest, "key"},
		{"duplicate batch key", service.SubmitRequest{Batch: []service.BatchItem{
			{Key: "same", Config: *tinyConfig()},
			{Key: "same", Config: *tinyConfig()},
		}}, service.CodeInvalidRequest, "duplicate"},
		{"batch member invalid", service.SubmitRequest{Batch: []service.BatchItem{
			{Key: "ok", Config: func() config.Config {
				cfg := *tinyConfig()
				cfg.Router.VCsPerPort = 0
				return cfg
			}()},
		}}, service.CodeInvalidConfig, "vcs_per_port"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Submit(ctx, tc.req)
			var apiErr *service.APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("error = %v, want *APIError", err)
			}
			if apiErr.Code != tc.code {
				t.Fatalf("code = %s, want %s (%s)", apiErr.Code, tc.code, apiErr.Message)
			}
			if !strings.Contains(apiErr.Message, tc.contains) {
				t.Fatalf("message %q does not mention %q", apiErr.Message, tc.contains)
			}
		})
	}
}

// A registry figure runs as a job and its document matches the registry
// output shape; asking for the result too early is a structured error.
func TestFigureJobAndEarlyResult(t *testing.T) {
	if testing.Short() && raceEnabled {
		t.Skip("figure job under -short -race: sim too slow on 1 CPU")
	}
	_, c := startServer(t, service.Options{MaxJobs: 1, Budget: 2})
	ctx := context.Background()

	figs, err := c.Figures(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) < 10 {
		t.Fatalf("figure list too short: %d", len(figs))
	}

	info, err := c.Submit(ctx, service.SubmitRequest{Figure: "t1", Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Result(ctx, info.ID); err == nil {
		// The job may legitimately have finished already on a fast host;
		// only a non-terminal job must refuse.
		if cur, _ := c.Job(ctx, info.ID); !cur.Terminal() {
			t.Fatal("result served before the job finished")
		}
	}
	final, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("figure job state = %s (%s)", final.State, final.Error)
	}
	doc, _, err := c.Result(ctx, final.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "t1" || len(doc.Runs) != 4 {
		t.Fatalf("t1 tiny document: name=%s runs=%d", doc.Name, len(doc.Runs))
	}
}

// Progress streams over SSE: a subscriber sees per-run progress events
// and a terminal state event, then the stream ends.
func TestSSEProgressStream(t *testing.T) {
	_, c := startServer(t, service.Options{MaxJobs: 1, Budget: 1})
	ctx := context.Background()

	var items []service.BatchItem
	for _, key := range []string{"r1", "r2", "r3"} {
		items = append(items, service.BatchItem{Key: key, Config: *tinyConfig()})
	}
	info, err := c.Submit(ctx, service.SubmitRequest{Name: "sse", Batch: items})
	if err != nil {
		t.Fatal(err)
	}

	var events []service.Event
	err = c.Events(ctx, info.ID, func(ev service.Event) bool {
		events = append(events, ev)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != service.StateDone {
		t.Fatalf("stream did not end with a terminal state event: %+v", last)
	}
	progress := 0
	for _, ev := range events {
		if ev.Type == "progress" {
			progress++
			if ev.Total != 3 {
				t.Fatalf("progress total = %d, want 3", ev.Total)
			}
		}
	}
	if progress == 0 {
		t.Fatal("no progress events on a 3-run batch")
	}
	// A late subscriber to a finished job still gets a terminal snapshot.
	var lateEvents []service.Event
	if err := c.Events(ctx, info.ID, func(ev service.Event) bool {
		lateEvents = append(lateEvents, ev)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(lateEvents) == 0 || lateEvents[len(lateEvents)-1].State != service.StateDone {
		t.Fatalf("late subscriber events: %+v", lateEvents)
	}
}

// Cancelling a running job drains it promptly: the in-flight simulation
// observes the cancelled context at a sync point and the job lands in
// the canceled state, with no result document cached.
func TestCancelRunningJob(t *testing.T) {
	_, c := startServer(t, service.Options{MaxJobs: 1, Budget: 1})
	ctx := context.Background()

	long := tinyConfig()
	long.Topology.Width, long.Topology.Height = 8, 8
	long.WarmupCycles = 0
	long.AnalyzedCycles = 500_000_000 // would run for hours if not cancelled
	info, err := c.Submit(ctx, service.SubmitRequest{Name: "long", Config: long})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for it to leave the queue, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := c.Job(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitTimeout(ctx, info.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateCanceled {
		t.Fatalf("cancelled job state = %s", final.State)
	}
	if _, _, err := c.Result(ctx, final.ID); err == nil {
		t.Fatal("cancelled job served a result")
	}
	// The same scenario resubmitted must actually run (nothing cached):
	// a cache hit completes without ever entering the running state, so
	// observing StateRunning proves the cancelled job left no entry.
	resub, err := c.Submit(ctx, service.SubmitRequest{Name: "long", Config: long})
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		cur, err := c.Job(ctx, resub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == service.StateRunning {
			break
		}
		if cur.Terminal() {
			t.Fatalf("resubmitted job finished without running (state %s, cache_hit %v): cancelled job left a cache entry", cur.State, cur.CacheHit)
		}
		if time.Now().After(deadline) {
			t.Fatalf("resubmitted job never started: %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, resub.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitTimeout(ctx, resub.ID, 60*time.Second); err != nil {
		t.Fatal(err)
	}
}

// The disk cache tier survives a daemon restart: a new server over the
// same directory serves the scenario from cache, byte-identically.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := service.SubmitRequest{Name: "persist", Config: tinyConfig(), Seed: 11}

	srv1 := mustServer(t, service.Options{MaxJobs: 1, Budget: 1, CacheDir: dir})
	ts1 := httptest.NewServer(srv1)
	c1 := client.New(ts1.URL)
	first, err := c1.SubmitAndWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != service.StateDone {
		t.Fatalf("job state = %s (%s)", first.State, first.Error)
	}
	_, raw1, err := c1.Result(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Close()

	srv2 := mustServer(t, service.Options{MaxJobs: 1, Budget: 1, CacheDir: dir})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()
	c2 := client.New(ts2.URL)
	second, err := c2.SubmitAndWait(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("restarted daemon did not serve from the disk cache")
	}
	_, raw2, err := c2.Result(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("disk-cached response not byte-identical to the cold run")
	}
}

// Unknown jobs are structured 404s.
func TestUnknownJob(t *testing.T) {
	_, c := startServer(t, service.Options{MaxJobs: 1, Budget: 1})
	ctx := context.Background()
	var apiErr *service.APIError
	if _, err := c.Job(ctx, "job-999999"); !errors.As(err, &apiErr) || apiErr.Code != service.CodeNotFound {
		t.Fatalf("unknown job error = %v", err)
	}
	if _, _, err := c.Result(ctx, "nope"); !errors.As(err, &apiErr) || apiErr.Code != service.CodeNotFound {
		t.Fatalf("unknown result error = %v", err)
	}
}

// A tile that panics on an engine worker goroutine must fail its job and
// leave the daemon serving. Validation refuses every machine known to
// panic, so the first job's machine gets a tile that panics in its first
// cycle, on an engine worker goroutine, which executeScenario's own
// recover cannot see.
func TestJobSurvivesEngineWorkerPanic(t *testing.T) {
	_, c := startServer(t, service.Options{MaxJobs: 1, Budget: 2})
	ctx := context.Background()
	t.Cleanup(service.PanicInNextBuild())

	bad := tinyConfig()
	bad.Engine.Workers = 2
	info, err := c.SubmitAndWait(ctx, service.SubmitRequest{Name: "worker-panic", Config: bad, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != service.StateFailed {
		t.Fatalf("job state = %s, want %s", info.State, service.StateFailed)
	}
	if !strings.Contains(info.Error, "panicked") {
		t.Fatalf("job error %q does not mention the panic", info.Error)
	}

	good, err := c.SubmitAndWait(ctx, service.SubmitRequest{Name: "after-the-panic", Config: tinyConfig(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if good.State != service.StateDone {
		t.Fatalf("follow-up job state = %s (%s)", good.State, good.Error)
	}
}
