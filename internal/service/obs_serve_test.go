// Observability contract tests: the /metrics exposition must agree
// with the /api/v1/stats JSON (two views over one set of sources), and
// the per-job trace endpoint must serve a loadable Chrome trace_event
// document through the Go client.
package service_test

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"hornet/internal/service"
)

// scrapeMetrics fetches url and parses the Prometheus text exposition
// into series → value ("hornet_jobs{state=\"done\"}" → 2). HELP/TYPE
// comments are skipped; the format itself is validated by the obs
// package's own tests.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q, want Prometheus text exposition", ct)
	}
	series := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return series
}

// /metrics and Stats() are two renderings of the same counters; after a
// checkpointed job completes they must tell the same story.
func TestMetricsAgreeWithStats(t *testing.T) {
	srv, c := startServer(t, service.Options{
		MaxJobs:         2,
		Budget:          2,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 500,
	})
	ctx := context.Background()

	info, err := c.SubmitAndWait(ctx, service.SubmitRequest{Config: tinyConfig(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != service.StateDone {
		t.Fatalf("job state = %s (%s)", info.State, info.Error)
	}

	series := scrapeMetrics(t, c.Base+"/metrics")
	st := srv.Stats()

	// Nothing is in flight, so the snapshot race window is empty: every
	// pair below reads settled counters.
	want := map[string]float64{
		`hornet_jobs{state="done"}`:            float64(st.JobsDone),
		`hornet_jobs{state="running"}`:         float64(st.JobsRunning),
		`hornet_jobs{state="failed"}`:          float64(st.JobsFailed),
		`hornet_budget_capacity`:               float64(st.BudgetCap),
		`hornet_budget_in_use`:                 float64(st.BudgetInUse),
		`hornet_result_cache_hits_total`:       float64(st.CacheHits),
		`hornet_result_cache_misses_total`:     float64(st.CacheMisses),
		`hornet_warmup_cache_misses_total`:     float64(st.WarmupMisses),
		`hornet_checkpoints_written_total`:     float64(st.CheckpointsWritten),
		`hornet_checkpoint_write_errors_total`: float64(st.CheckpointWriteErrs),
		`hornet_runs_resumed_total`:            float64(st.RunsResumed),
		`hornet_jobs_coalesced_total`:          float64(st.CoalescedJobs),
		`hornet_fleet_lease_expiries_total`:    float64(st.Fleet.WorkersLost),
		`hornet_fleet_tasks_requeued_total`:    float64(st.Fleet.TasksRequeued),
		`hornet_fleet_checkpoint_bytes_total`:  float64(st.Fleet.CheckpointBytes),
	}
	for name, v := range want {
		got, ok := series[name]
		if !ok {
			t.Errorf("series %s missing from /metrics", name)
			continue
		}
		if got != v {
			t.Errorf("%s = %v, /api/v1/stats says %v", name, got, v)
		}
	}

	// The job really was checkpointed and simulated, so the sources
	// themselves must be non-trivial — agreement on zeros proves little.
	if st.CheckpointsWritten == 0 {
		t.Error("checkpointed job wrote no snapshots")
	}
	if series["hornet_engine_cycles_total"] == 0 {
		t.Error("hornet_engine_cycles_total = 0 after a completed simulation")
	}
	if series[`hornet_engine_compute_seconds_count`] == 0 {
		t.Error("engine compute histogram recorded no chunks")
	}
	if _, ok := series["hornet_engine_barrier_parks_total"]; !ok {
		t.Error("hornet_engine_barrier_parks_total missing from /metrics")
	}

	// The HTTP middleware measured the API traffic this test generated.
	if series[`hornet_http_requests_total{route="POST /api/v1/jobs",code="202"}`] == 0 {
		t.Errorf("submit route not counted; have: %v", keysWithPrefix(series, "hornet_http_requests_total"))
	}
	if series[`hornet_http_request_seconds_count{route="POST /api/v1/jobs"}`] == 0 {
		t.Error("submit route latency not observed")
	}
}

func keysWithPrefix(m map[string]float64, prefix string) []string {
	var out []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}

// The trace endpoint round-trips through the Go client: a completed
// job's timeline holds the queued and running spans, closed, plus the
// terminal instant — exactly what Perfetto needs to draw a lifecycle.
func TestTraceEndpointRoundTrip(t *testing.T) {
	_, c := startServer(t, service.Options{MaxJobs: 1, Budget: 2})
	ctx := context.Background()

	info, err := c.SubmitAndWait(ctx, service.SubmitRequest{Config: tinyConfig(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != service.StateDone {
		t.Fatalf("job state = %s (%s)", info.State, info.Error)
	}

	doc, raw, err := c.Trace(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("unexpected trace document: unit=%q raw=%d bytes", doc.DisplayTimeUnit, len(raw))
	}
	phases := make(map[string]string) // event name -> phase
	for _, ev := range doc.TraceEvents {
		phases[ev.Name] = ev.Phase
	}
	if phases["process_name"] != "M" {
		t.Fatalf("missing process_name metadata event: %v", phases)
	}
	// Both lifecycle spans must be closed (complete "X" events) on a
	// terminal job; an open "B" means finalize leaked a span.
	for _, span := range []string{"queued", "running"} {
		if ph := phases[span]; ph != "X" {
			t.Errorf("span %q phase = %q, want closed span X", span, ph)
		}
	}
	if phases["done"] != "i" {
		t.Errorf("terminal instant missing: %v", phases)
	}

	if _, _, err := c.Trace(ctx, "job-does-not-exist"); err == nil {
		t.Fatal("trace of unknown job succeeded")
	} else {
		var apiErr *service.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("unknown-job error is not an APIError: %v", err)
		}
	}
}
