package obs

import "testing"

// TestEngineFold: each total counts from its own high-water mark, so a
// snapshot whose fields were loaded at slightly different moments than its
// predecessor's never yields a negative increment, and the increments of a
// probe sum to its largest totals.
func TestEngineFold(t *testing.T) {
	snap := func(probe, cycles uint64, computeMS float64, parks uint64) ProbeSnapshot {
		return ProbeSnapshot{Probe: probe, Cycles: cycles,
			Partitions: []PartitionSnapshot{{ComputeMS: computeMS, BarrierParks: parks}}}
	}
	var f EngineFold
	var sum EngineDelta
	for _, s := range []ProbeSnapshot{
		snap(1, 100, 10, 1),
		snap(1, 200, 30, 2),
		snap(1, 200, 20, 3), // same cycles, older compute: only the parks move
		snap(1, 150, 40, 9), // fewer cycles: stale
		snap(1, 300, 35, 4),
	} {
		d, ok := f.Fold(s)
		if ok != (s.Cycles != 150) {
			t.Fatalf("Fold(%d cycles) ok = %v", s.Cycles, ok)
		}
		if d.ComputeS < 0 {
			t.Fatalf("Fold(%d cycles) gave a negative compute increment %v", s.Cycles, d.ComputeS)
		}
		sum.Cycles += d.Cycles
		sum.Parks += d.Parks
		sum.ComputeS += d.ComputeS
	}
	if sum.Cycles != 300 || sum.Parks != 4 || sum.ComputeS < 0.0349 || sum.ComputeS > 0.0351 {
		t.Errorf("increments sum to %+v, want 300 cycles, 4 parks, 0.035 s compute", sum)
	}
	if d, ok := f.Fold(snap(2, 50, 5, 0)); !ok || d.Cycles != 50 {
		t.Errorf("a new probe's first snapshot folded to %+v, %v; want it whole", d, ok)
	}
}
