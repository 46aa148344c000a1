package experiments

import (
	"bytes"
	"testing"

	"hornet/internal/sweep"
)

func convDocBytes(t *testing.T, o Options) []byte {
	t.Helper()
	f, ok := FigureByName("conv")
	if !ok {
		t.Fatal("conv figure not registered")
	}
	_, doc, err := f.Document(o)
	if err != nil {
		t.Fatalf("conv document: %v", err)
	}
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestConvergenceWarmupOnce: the figure's items share one warmup
// prefix, so with reuse enabled the warmup simulates exactly once and
// every other item restores from the snapshot.
func TestConvergenceWarmupOnce(t *testing.T) {
	warm := sweep.NewSnapshotCache("")
	o := Options{Tiny: true, Seed: 7, Warmups: warm}
	rows, _ := convergence(o)
	if len(rows) < 3 {
		t.Fatalf("conv returned %d rows", len(rows))
	}
	if got := warm.Misses(); got != 1 {
		t.Errorf("warmup simulated %d times, want exactly 1", got)
	}
	if got := warm.Hits(); got != uint64(len(rows)-1) {
		t.Errorf("warmup cache hits = %d, want %d", got, len(rows)-1)
	}
	// Longer windows must keep converging toward the reference.
	if rows[len(rows)-1].DeltaPct != 0 {
		t.Errorf("longest window delta = %v, want 0", rows[len(rows)-1].DeltaPct)
	}
}

// TestConvergenceBytesStable: warmup-snapshot reuse and sweep
// parallelism must not change one byte of the emitted document — the
// round-trip contract, end to end.
func TestConvergenceBytesStable(t *testing.T) {
	base := convDocBytes(t, Options{Tiny: true, Seed: 7})
	noReuse := convDocBytes(t, Options{Tiny: true, Seed: 7, NoWarmupReuse: true})
	if !bytes.Equal(base, noReuse) {
		t.Errorf("document differs with warmup reuse disabled:\nreuse: %s\ndirect: %s", base, noReuse)
	}
	parallel := convDocBytes(t, Options{Tiny: true, Seed: 7, Parallel: 4})
	if !bytes.Equal(base, parallel) {
		t.Errorf("document differs at parallel=4")
	}
	disk := convDocBytes(t, Options{Tiny: true, Seed: 7,
		Warmups: sweep.NewSnapshotCache(t.TempDir())})
	if !bytes.Equal(base, disk) {
		t.Errorf("document differs with a disk-tier warmup cache")
	}
}
