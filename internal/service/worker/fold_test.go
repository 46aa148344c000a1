package worker

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hornet/internal/obs"
)

// Engine-probe snapshots arrive from one task's concurrently finishing
// runs; engineFold serializes them into (prev, cur) pairs so the
// worker's histograms never double-count a chunk. This hammers the fold
// + observe path from many goroutines — primarily a race-detector
// target. A real probe's counters are monotone per task, so the test
// draws each cycle count and folds it under one lock of its own (the
// chain then rises by one per fold); observeEngine, the race target,
// stays concurrent.
func TestEngineFoldConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Options{Coordinator: "http://unused.invalid", Capacity: 2, Metrics: reg})

	const goroutines, perG = 8, 200
	fold := &engineFold{}
	var (
		chainMu sync.Mutex
		clock   uint64 // monotone cycle source (guarded by chainMu)
	)
	var folds atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				chainMu.Lock()
				clock++
				c := clock
				prev, cur := fold.fold(obs.ProbeSnapshot{
					Cycles: c,
					Partitions: []obs.PartitionSnapshot{
						{Cycles: c, ComputeMS: float64(c) / 1e3, BarrierMS: float64(c) / 1e6, BarrierParks: 2 * c},
					},
				})
				chainMu.Unlock()
				w.metrics.observeEngine(prev, cur)
				if cur.Cycles != c {
					t.Errorf("fold returned cur %d for snapshot %d", cur.Cycles, c)
				}
				folds.Add(1)
			}
		}()
	}
	wg.Wait()

	if folds.Load() != goroutines*perG {
		t.Fatalf("ran %d folds, want %d", folds.Load(), goroutines*perG)
	}
	// The fold chain telescopes over a monotone sequence: every fold
	// contributes exactly its one-cycle delta, at any interleaving.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	total := metricValue(t, buf.String(), "hornet_engine_cycles_total")
	if total != goroutines*perG {
		t.Errorf("hornet_engine_cycles_total = %v, want %d", total, goroutines*perG)
	}
	if parks := metricValue(t, buf.String(), "hornet_engine_barrier_parks_total"); parks != 2*goroutines*perG {
		t.Errorf("hornet_engine_barrier_parks_total = %v, want %d", parks, 2*goroutines*perG)
	}
	// The exposition the hammer produced must still lint cleanly.
	if err := obs.LintPrometheusText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("post-hammer exposition fails lint: %v", err)
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
