// End-to-end tests for the NoC observatory: the live machine-telemetry
// stream, the Perfetto counter tracks it
// feeds, the stall watchdog, and the strict Prometheus lint over both
// daemons' expositions. These drive everything through the public HTTP
// API, exactly like real clients and workers.
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/obs"
	"hornet/internal/service"
	"hornet/internal/service/backend"
	"hornet/internal/service/worker"
	"hornet/internal/sweep"
)

// collectTelemetry subscribes to the job's telemetry SSE stream in the
// background and returns a wait function yielding every frame received
// until the stream ended (terminal state closes it server-side).
func collectTelemetry(t *testing.T, c interface {
	Telemetry(ctx context.Context, id string, fn func(service.Event) bool) error
}, id string) (wait func() []service.Event) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	var (
		mu     sync.Mutex
		frames []service.Event
	)
	done := make(chan error, 1)
	go func() {
		done <- c.Telemetry(ctx, id, func(ev service.Event) bool {
			mu.Lock()
			frames = append(frames, ev)
			mu.Unlock()
			return true
		})
	}()
	return func() []service.Event {
		t.Helper()
		defer cancel()
		if err := <-done; err != nil {
			t.Fatalf("telemetry stream: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		return frames
	}
}

// runValue pulls a numeric field out of the document's single run
// record (RunStats round-trips as map[string]any through JSON).
func runValue(t *testing.T, raw []byte, field string) uint64 {
	t.Helper()
	var doc sweep.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decode document: %v", err)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("document has %d runs, want 1", len(doc.Runs))
	}
	m, ok := doc.Runs[0].Value.(map[string]any)
	if !ok {
		t.Fatalf("run value is %T, want object", doc.Runs[0].Value)
	}
	v, ok := m[field].(float64)
	if !ok {
		t.Fatalf("run value field %q is %T (%v), want number", field, m[field], m[field])
	}
	return uint64(v)
}

// The acceptance e2e: a `shards: 2` job's telemetry stream presents one
// full-machine view in every frame, its final frame agrees exactly with
// the result document's flit totals, and the job's trace carries the
// Perfetto counter tracks the samples fed — on a daemon without workers,
// which runs the job in-process on two engine workers, and on a fleet of
// two 1-slot workers, one of which runs it. Attaching telemetry changes no
// byte of the document: both equal the document of a daemon with
// telemetry off.
func TestShardedTelemetryConsistentWithDocument(t *testing.T) {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.10}}
	cfg.WarmupCycles = 300
	cfg.AnalyzedCycles = 8_000
	if fleetRaceDetector {
		cfg.AnalyzedCycles = 3_000
	}
	req := service.SubmitRequest{Name: "telemetry-sharded", Config: &cfg, Seed: 17, Shards: 2}

	detached := startFleetDaemon(t, service.Options{MaxJobs: 1, Budget: 2, TelemetryEvery: -1})
	_, want := runToDone(t, detached, req, 4*time.Minute)

	for _, tc := range []struct {
		backend string
		workers int
	}{{"local", 0}, {"fleet", 2}} {
		t.Run(tc.backend, func(t *testing.T) {
			d := startFleetDaemon(t, service.Options{
				MaxJobs: 1, Budget: 2,
				WorkerTTL:      30 * time.Second,
				TelemetryEvery: 20 * time.Millisecond,
			})
			for i := 0; i < tc.workers; i++ {
				attachFleetWorker(t, d, worker.Options{
					ID: "tel" + strconv.Itoa(i), Capacity: 1, TelemetryEvery: 20 * time.Millisecond,
				})
			}
			waitWorkers(t, d, tc.workers)
			raw := checkShardedTelemetry(t, d, req, tc.backend)
			if !bytes.Equal(raw, want) {
				t.Errorf("document with telemetry attached differs from the detached one:\nattached: %s\ndetached: %s", raw, want)
			}
		})
	}
}

// checkShardedTelemetry runs the sharded req on d, checks its telemetry
// stream (every frame the whole 4x4 machine) and trace against its
// document, and returns the document.
func checkShardedTelemetry(t *testing.T, d *fleetDaemon, req service.SubmitRequest, backend string) []byte {
	t.Helper()
	c := d.c
	ctx := context.Background()
	info, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wait := collectTelemetry(t, c, info.ID)

	final, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	}
	if final.Backend != backend {
		t.Fatalf("job ran on backend %q, want %s", final.Backend, backend)
	}
	frames := wait()
	if len(frames) == 0 {
		t.Fatal("telemetry stream delivered no frames")
	}

	// Every frame is the full-machine view; cycles never move backwards.
	var lastCycle uint64
	for i, ev := range frames {
		if ev.Type == "stalled" {
			continue
		}
		if ev.Type != "telemetry" || ev.Telemetry == nil {
			t.Fatalf("frame %d: %+v, want a telemetry frame", i, ev)
		}
		s := ev.Telemetry
		if len(s.Tiles) != 16 {
			t.Fatalf("frame %d samples %d tiles, want all 16", i, len(s.Tiles))
		}
		if s.Cycle < lastCycle {
			t.Fatalf("frame %d cycle %d < previous %d", i, s.Cycle, lastCycle)
		}
		lastCycle = s.Cycle
	}

	// The final frame covers the whole machine and its totals are the
	// document's totals: telemetry is a live view of the same counters
	// the result aggregates.
	last := frames[len(frames)-1].Telemetry
	if last.TileLo != 0 || last.TileHi != 16 || len(last.Tiles) != 16 {
		t.Fatalf("final frame span [%d,%d) with %d tiles, want [0,16) with 16",
			last.TileLo, last.TileHi, len(last.Tiles))
	}
	if len(last.Links) == 0 {
		t.Fatal("final frame has no link occupancy samples")
	}
	_, raw, err := c.Result(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := last.FlitsInjected(), runValue(t, raw, "flits_injected"); got != want {
		t.Errorf("final telemetry injected = %d, document says %d", got, want)
	}
	if got, want := last.FlitsDelivered(), runValue(t, raw, "flits_delivered"); got != want {
		t.Errorf("final telemetry delivered = %d, document says %d", got, want)
	}

	// The samples fed the trace's counter tracks: Perfetto "C"
	// events carrying numeric args.
	trace, _, err := c.Trace(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Phase == "C" {
			counters[ev.Name]++
			for k, v := range ev.Args {
				if _, ok := v.(float64); !ok {
					t.Errorf("counter %s arg %s is %T, Perfetto needs numbers", ev.Name, k, v)
				}
			}
		}
	}
	for _, name := range []string{"injection_rate", "buffer_occupancy"} {
		if counters[name] == 0 {
			t.Errorf("trace has no %q counter samples; counter tracks: %v", name, counters)
		}
	}
	return raw
}

// A wedged executor must trip the stall watchdog: the job reports a
// stall episode, the daemon counts it, and the trace records the
// instant. The wedge is a fake worker speaking the real fleet protocol
// — it registers, takes the assignment, and then goes silent without
// ever pushing an event.
func TestStallWatchdogTripsOnWedgedExecutor(t *testing.T) {
	_, c := startServer(t, service.Options{
		MaxJobs: 1, Budget: 1,
		StallAfter: 100 * time.Millisecond,
		WorkerTTL:  time.Minute, // outlive the test: the wedge must not be expired+requeued
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	post := func(path string, body, out any) int {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(c.Base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("decode %s response: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var reg backend.RegisterResponse
	if code := post("/api/v1/workers", backend.RegisterRequest{ID: "wedge", Capacity: 1}, &reg); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}

	info, err := c.Submit(ctx, service.SubmitRequest{
		Name: "wedged", Config: tinyConfig(), Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Take the assignment like a real worker would — then never speak
	// again. The job is running with zero forward progress.
	took := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		var a backend.Assignment
		code := post("/api/v1/workers/wedge/poll?wait=2s", struct{}{}, &a)
		if code == http.StatusOK {
			if a.TaskID == "" {
				t.Fatal("poll returned an empty assignment")
			}
			took = true
			break
		}
		if code != http.StatusNoContent {
			t.Fatalf("poll: HTTP %d", code)
		}
	}
	if !took {
		t.Fatal("the fake worker was never assigned the task")
	}

	for deadline := time.Now().Add(30 * time.Second); ; {
		ji, err := c.Job(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ji.Terminal() {
			t.Fatalf("wedged job reached %s (%s) before the watchdog fired", ji.State, ji.Error)
		}
		if ji.Stalls >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never fired: %+v", ji)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if series := scrapeMetrics(t, c.Base+"/metrics"); series["hornet_job_stalls_total"] < 1 {
		t.Errorf("hornet_job_stalls_total = %v, want >= 1", series["hornet_job_stalls_total"])
	}
	trace, _, err := c.Trace(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range trace.TraceEvents {
		if ev.Name == "stalled" && ev.Phase == "i" {
			found = true
		}
	}
	if !found {
		t.Error("trace has no stalled instant")
	}

	if _, err := c.Cancel(ctx, info.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
}

// Figure jobs run through the sweep path, not chunkedRun — the engine
// probe must reach /metrics anyway (the PR 7 gap this PR closes).
func TestFigureJobFeedsEngineMetrics(t *testing.T) {
	_, c := startServer(t, service.Options{MaxJobs: 1, Budget: 2})
	ctx := context.Background()

	info, err := c.SubmitAndWait(ctx, service.SubmitRequest{Figure: "t1", Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != service.StateDone {
		t.Fatalf("figure job state = %s (%s)", info.State, info.Error)
	}

	series := scrapeMetrics(t, c.Base+"/metrics")
	if series["hornet_engine_cycles_total"] == 0 {
		t.Error("hornet_engine_cycles_total = 0 after a figure job: the sweep path is not probed")
	}
	if series["hornet_engine_compute_seconds_count"] == 0 {
		t.Error("engine compute histogram empty after a figure job")
	}
}

// Distributed telemetry + the strict lint: a real fleet worker pushes
// machine-telemetry samples through the coordinator (the job reports a
// live merged view while remote), and both daemons' Prometheus
// expositions survive the strict text-format linter.
func TestFleetTelemetryAndExpositionLint(t *testing.T) {
	d := startFleetDaemon(t, service.Options{
		MaxJobs: 1, Budget: 1,
		WorkerTTL:      30 * time.Second,
		TelemetryEvery: 20 * time.Millisecond,
	})
	reg := obs.NewRegistry()
	attachFleetWorker(t, d, worker.Options{
		ID:             "telw",
		Capacity:       1,
		Metrics:        reg,
		TelemetryEvery: 20 * time.Millisecond,
	})
	waitWorkers(t, d, 1)

	req := service.SubmitRequest{Name: "fleet-telemetry", Config: fleetConfig(3_000), Seed: 29}
	sctx := context.Background()
	info, err := d.c.Submit(sctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wait := collectTelemetry(t, d.c, info.ID)
	final, err := d.c.Wait(sctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	}
	if final.Backend != "fleet" {
		t.Fatalf("job ran on backend %q, want fleet", final.Backend)
	}
	frames := wait()
	if len(frames) == 0 {
		t.Fatal("remote execution delivered no telemetry frames")
	}
	for i, ev := range frames {
		if ev.Type == "telemetry" && ev.Telemetry != nil && len(ev.Telemetry.Tiles) == 0 {
			t.Fatalf("frame %d has no tiles: %+v", i, ev.Telemetry)
		}
	}

	// Both expositions — the coordinator's and the worker's — must pass
	// the strict 0.0.4 lint, with their new series present.
	resp, err := http.Get(d.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var coord bytes.Buffer
	if _, err := coord.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := obs.LintPrometheusText(bytes.NewReader(coord.Bytes())); err != nil {
		t.Errorf("coordinator exposition fails strict lint: %v", err)
	}
	for _, name := range []string{"hornet_job_stalls_total", "hornet_trace_dropped_events_total"} {
		if !bytes.Contains(coord.Bytes(), []byte(name)) {
			t.Errorf("coordinator exposition is missing %s", name)
		}
	}

	var wb bytes.Buffer
	if err := reg.WritePrometheus(&wb); err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheusText(bytes.NewReader(wb.Bytes())); err != nil {
		t.Errorf("worker exposition fails strict lint: %v", err)
	}
	if !bytes.Contains(wb.Bytes(), []byte("hornet_engine_cycles_total")) {
		t.Error("worker exposition is missing hornet_engine_cycles_total")
	}
}
