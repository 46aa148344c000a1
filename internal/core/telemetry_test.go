package core

import (
	"fmt"
	"reflect"
	"testing"

	"hornet/internal/config"
	"hornet/internal/sim"
	"hornet/internal/trace"
)

// sampleLog records the cycle of every telemetry sample a system takes:
// the user stop predicate runs right after the sampling hook at each sync
// point, and poll runs again after each run for its end-state sample.
type sampleLog struct {
	t      *testing.T
	sys    *System
	seq    uint64
	cycles []uint64
}

func (l *sampleLog) poll() {
	snap, seq := l.sys.Telemetry()
	if seq == l.seq {
		return
	}
	if seq != l.seq+1 {
		l.t.Fatalf("telemetry took %d samples between two polls, want 1", seq-l.seq)
	}
	l.seq = seq
	l.cycles = append(l.cycles, snap.Cycle)
}

func (l *sampleLog) run(cycles uint64) sim.RunResult {
	r := l.sys.RunUntilResumed(cycles, func(uint64) bool { l.poll(); return false })
	l.poll()
	return r
}

// The latest telemetry sample is the machine's position. On the
// fast-forwarding machine of TestFastForwardTransparency, run in two chunks
// that each end in a jump, it sits at the clock after every run and counts
// every run's skipped cycles.
func TestTelemetrySamplesMachinePosition(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d/jumps", workers), func(t *testing.T) {
			cfg := smallCfg()
			cfg.Engine.Workers = workers
			cfg.Engine.FastForward = true
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := &trace.Trace{}
			tr.Add(100, 0, 15, 8)
			tr.Add(5_000, 3, 12, 8)
			tr.Add(50_000, 15, 0, 8)
			sys.AttachTrace(tr)
			sys.EnableTelemetry(256)

			var skipped uint64
			for _, run := range []func() sim.RunResult{
				func() sim.RunResult { return sys.RunUntil(1_000, nil) },
				func() sim.RunResult { return sys.RunUntilResumed(60_000, nil) },
			} {
				r := run()
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				skipped += r.SkippedCycles
				snap, _ := sys.Telemetry()
				if snap.Cycle != sys.Clock() {
					t.Errorf("latest sample at cycle %d, clock at %d", snap.Cycle, sys.Clock())
				}
				if snap.SkippedCycles != skipped {
					t.Errorf("latest sample skipped %d cycles, the runs skipped %d", snap.SkippedCycles, skipped)
				}
			}
			if sys.Clock() != 61_000 || skipped == 0 {
				t.Fatalf("clock %d with %d cycles skipped, want 61000 with some skipped", sys.Clock(), skipped)
			}
		})
	}
}

type cadenceCase struct {
	name       string
	syncPeriod int
	every      uint64
	chunks     []uint64
	want       []uint64
}

// checkCadence runs each case's chunks on a uniform-traffic machine at
// workers 1 and 2 and asserts the cycles its telemetry samples land on.
func checkCadence(t *testing.T, cases []cadenceCase) {
	t.Helper()
	for _, workers := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, tc.name), func(t *testing.T) {
				cfg := smallCfg()
				cfg.Engine.Workers = workers
				cfg.Engine.SyncPeriod = tc.syncPeriod
				cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.05}}
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.AttachSyntheticTraffic(); err != nil {
					t.Fatal(err)
				}
				sys.EnableTelemetry(tc.every)
				log := &sampleLog{t: t, sys: sys}
				for _, n := range tc.chunks {
					log.run(n)
				}
				if !reflect.DeepEqual(log.cycles, tc.want) {
					t.Fatalf("sample cycles = %v, want %v", log.cycles, tc.want)
				}
			})
		}
	}
}

// The telemetry cadence is absolute: samples land on multiples of every,
// plus one at the end of every run, so a run split into chunks samples at
// the cycles the whole run does and adds its chunk boundary.
func TestTelemetryCadence(t *testing.T) {
	checkCadence(t, []cadenceCase{
		{"whole", 1, 64, []uint64{200}, []uint64{64, 128, 192, 200}},
		{"chunked", 1, 64, []uint64{100, 100}, []uint64{64, 100, 128, 192, 200}},
	})
}

// A sync period > 1 keeps the absolute cadence: samples fire at the first
// sync point at or past each multiple, whole and in chunks.
func TestTelemetryCadenceSyncPeriod(t *testing.T) {
	checkCadence(t, []cadenceCase{
		{"sync8", 8, 50, []uint64{128}, []uint64{56, 104, 128}},
		{"sync8-chunked", 8, 50, []uint64{64, 64}, []uint64{56, 64, 104, 128}},
	})
}

// Telemetry that is enabled but not due costs a run nothing per cycle:
// running 10x more cycles may not allocate more. (The end-state sample and
// the run's setup are the same for both lengths; the power model, which
// records a sample per epoch, gets an epoch longer than the runs.)
func TestTelemetryHookAllocFree(t *testing.T) {
	run := func(cycles uint64) float64 {
		cfg := smallCfg()
		cfg.Engine.Workers = 2
		cfg.Power.EpochCycles = 1 << 30
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.EnableTelemetry(1 << 40)
		return testing.AllocsPerRun(3, func() {
			if res := sys.Run(cycles); res.Cycles != cycles {
				t.Fatalf("ran %d cycles, want %d", res.Cycles, cycles)
			}
		})
	}
	short, long := run(50), run(500)
	if long > short {
		t.Errorf("telemetry allocates per cycle when not due: %v allocs @50 cycles vs %v @500", short, long)
	}
}
