package sim

import (
	"testing"

	"hornet/internal/obs"
)

// busyTile is the cheapest possible always-active tile: with per-cycle
// work this small, any per-cycle allocation or timing overhead in the
// engine loop dominates the measurement.
type busyTile struct{ n uint64 }

func (b *busyTile) PhaseTransfer(cycle uint64)  { b.n++ }
func (b *busyTile) PhaseCommit(cycle uint64)    { b.n++ }
func (b *busyTile) NextEvent(now uint64) uint64 { return now + 1 }

func busyTiles(n int) []Tile {
	tiles := make([]Tile, n)
	for i := range tiles {
		tiles[i] = &busyTile{}
	}
	return tiles
}

// TestEngineHotPathAllocFree is the acceptance guard for the probe
// hooks: with no probe attached, running 10x more cycles must not
// allocate more — i.e. per-cycle allocations are zero and the probe
// branches are free. (Per-Run setup allocations — goroutines, barrier —
// are identical between the two measurements and cancel out.)
func TestEngineHotPathAllocFree(t *testing.T) {
	run := func(cycles uint64) float64 {
		e := NewEngine(busyTiles(4), 2, 1, false, nil)
		return testing.AllocsPerRun(3, func() {
			if res := e.Run(0, cycles, nil); res.Cycles != cycles {
				t.Fatalf("ran %d cycles, want %d", res.Cycles, cycles)
			}
		})
	}
	short, long := run(50), run(500)
	if long > short+1 {
		t.Errorf("hot path allocates per cycle without a probe: %v allocs @50 cycles vs %v @500",
			short, long)
	}
}

// TestEngineProbeRecords sanity-checks that an attached probe sees the
// run: cycles, wall time and every partition.
func TestEngineProbeRecords(t *testing.T) {
	e := NewEngine(busyTiles(4), 2, 1, false, nil)
	p := obs.NewSimProbe()
	e.SetProbe(p)
	if res := e.Run(0, 200, nil); res.Cycles != 200 {
		t.Fatalf("ran %d cycles", res.Cycles)
	}
	s := p.Snapshot()
	if s.Runs != 1 || s.Cycles != 200 {
		t.Errorf("probe totals wrong: %+v", s)
	}
	if len(s.Partitions) != 2 {
		t.Fatalf("partitions = %d, want 2", len(s.Partitions))
	}
	var cycles uint64
	for w, part := range s.Partitions {
		cycles += part.Cycles
		if part.Worker != w {
			t.Errorf("partition %d names worker %d", w, part.Worker)
		}
	}
	// Each of the 2 partitions counts all 200 cycles.
	if cycles != 400 {
		t.Errorf("partition cycles = %d, want 400", cycles)
	}
	if s.CyclesPerSec <= 0 {
		t.Errorf("cycles/sec = %v", s.CyclesPerSec)
	}

	// Chunked path (syncPeriod > 1) records through the same probe.
	e2 := NewEngine(busyTiles(4), 2, 8, false, nil)
	p2 := obs.NewSimProbe()
	e2.SetProbe(p2)
	e2.Run(0, 64, nil)
	if s2 := p2.Snapshot(); s2.Cycles != 64 || len(s2.Partitions) != 2 {
		t.Errorf("chunked probe totals wrong: %+v", s2)
	}
}

// BenchmarkEngineProbe quantifies probe overhead; the no-probe variant
// is the one the seed BENCH_* gates guard.
func BenchmarkEngineProbe(b *testing.B) {
	for _, bc := range []struct {
		name  string
		probe bool
	}{{"off", false}, {"on", true}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine(busyTiles(16), 4, 1, false, nil)
			if bc.probe {
				e.SetProbe(obs.NewSimProbe())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(0, 100, nil)
			}
		})
	}
}
