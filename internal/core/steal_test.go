package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"hornet/internal/config"
)

// TestStolenChunksMatchOneWorker runs a hotspot 8x8 mesh — the hot nodes
// make one span busier than another, so workers take chunks over from each
// other — on 1 to 4 engine workers and requires the one-worker Summary and
// snapshot bytes, mid-run and at the end. At 2 and 3 workers every span
// holds two chunks, so a chunk can move while its span's other chunk stays;
// at 4 a span is one chunk, taken whole or not at all.
func TestStolenChunksMatchOneWorker(t *testing.T) {
	run := func(t *testing.T, workers int) []string {
		cfg := config.Default()
		cfg.Topology.Width, cfg.Topology.Height = 8, 8
		cfg.Engine.Seed = 0x5EA1
		cfg.Engine.Workers = workers
		cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternHotspot, InjectionRate: 0.08, HotNodes: []int{9, 14}, HotFrac: 0.6}}
		sys := buildSynthetic(t, cfg)
		var out []string
		for _, cycles := range []uint64{1200, 1800} {
			if res := sys.Run(cycles); res.Err != nil || res.Workers != workers {
				t.Fatalf("run: %+v", res)
			}
			b, err := sys.SnapshotBytes()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, systemDigest(t, sys, workers), fmt.Sprintf("%x", sha256.Sum256(b)))
		}
		if sys.Summary().FlitsDelivered == 0 {
			t.Fatal("nothing was delivered: the test compared idle machines")
		}
		return out
	}
	want := run(t, 1)
	for workers := 2; workers <= 4; workers++ {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			got := run(t, workers)
			for i, what := range []string{"mid Summary", "mid snapshot", "final Summary", "final snapshot"} {
				if got[i] != want[i] {
					t.Errorf("%s: %s, one worker %s", what, got[i], want[i])
				}
			}
		})
	}
}
