package worker

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hornet/internal/obs"
	"hornet/internal/service/backend"
)

// engineSnap is a one-partition probe snapshot at cycle c.
func engineSnap(probe, c uint64) obs.ProbeSnapshot {
	return obs.ProbeSnapshot{Probe: probe, Cycles: c, Partitions: []obs.PartitionSnapshot{
		{Cycles: c, ComputeMS: float64(c) / 1e3, BarrierMS: float64(c) / 1e6, BarrierParks: 2 * c},
	}}
}

// countSink counts the engine snapshots a task sink forwards upstream.
type countSink struct {
	backend.Discard
	engine atomic.Int64
}

func (c *countSink) Engine(obs.ProbeSnapshot) { c.engine.Add(1) }

// Engine-probe snapshots arrive from one task's concurrently finishing
// runs, in any order. This hammers a task sink's fold + observe path from
// many goroutines — primarily a race-detector target. Whatever the
// interleaving, the series end at the newest snapshot's totals: stale
// snapshots are ignored and every other one counts from the high-water
// marks of the ones before it.
func TestEngineFoldConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Options{Coordinator: "http://unused.invalid", Capacity: 2, Metrics: reg})
	up := &countSink{}
	sink := &taskSink{Sink: up, metrics: w.metrics}

	const goroutines, perG = 8, 200
	var clock atomic.Uint64 // monotone cycle source
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sink.Engine(engineSnap(7, clock.Add(1)))
			}
		}()
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if total := metricValue(t, buf.String(), "hornet_engine_cycles_total"); total != goroutines*perG {
		t.Errorf("hornet_engine_cycles_total = %v, want %d", total, goroutines*perG)
	}
	if parks := metricValue(t, buf.String(), "hornet_engine_barrier_parks_total"); parks != 2*goroutines*perG {
		t.Errorf("hornet_engine_barrier_parks_total = %v, want %d", parks, 2*goroutines*perG)
	}
	if n := up.engine.Load(); n < 1 || n > goroutines*perG {
		t.Errorf("forwarded %d snapshots upstream, want 1..%d", n, goroutines*perG)
	}
	// The exposition the hammer produced must still lint cleanly.
	if err := obs.LintPrometheusText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("post-hammer exposition fails lint: %v", err)
	}
}

// TestEngineFoldIgnoresStaleSnapshot: one probe delivering cycle counts
// 100, 300, 200, 400 counts 400 — the late 200 is neither counted nor
// pushed to the coordinator — and a new probe's first snapshot (the task
// ran again) counts whole.
func TestEngineFoldIgnoresStaleSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Options{Coordinator: "http://unused.invalid", Capacity: 1, Metrics: reg})
	up := &countSink{}
	sink := &taskSink{Sink: up, metrics: w.metrics}
	cycles := func() float64 {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return metricValue(t, buf.String(), "hornet_engine_cycles_total")
	}

	for _, c := range []uint64{100, 300, 200, 400} {
		sink.Engine(engineSnap(1, c))
	}
	if got := cycles(); got != 400 {
		t.Errorf("after 100, 300, 200, 400 of one probe: hornet_engine_cycles_total = %v, want 400", got)
	}
	if n := up.engine.Load(); n != 3 {
		t.Errorf("forwarded %d snapshots upstream, want 3 (the stale 200 dropped)", n)
	}
	sink.Engine(engineSnap(2, 50))
	if got := cycles(); got != 450 {
		t.Errorf("after a new probe's 50: hornet_engine_cycles_total = %v, want 450", got)
	}
}

// metricValue extracts one unlabelled series value from an exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range bytes.Split([]byte(exposition), []byte("\n")) {
		var v float64
		if n, _ := fmt.Sscanf(string(line), name+" %g", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("series %s not found in:\n%s", name, exposition)
	return 0
}
