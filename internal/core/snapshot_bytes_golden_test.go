package core

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hornet/internal/config"
)

var updateSnapshotBytes = flag.Bool("update-snapshot-bytes", false,
	"rewrite testdata/snapshot_bytes_golden.json from this run")

// The pinned runs snapshot after bytesMid cycles and again bytesRest cycles
// later: the first lands mid-flight, the second after every machine has
// wrapped its buffers and credit counters many times.
const (
	bytesMid  = 1777
	bytesRest = 2500
)

// bytesMachine is one machine whose snapshot bytes are pinned.
type bytesMachine struct {
	name string
	// serialOnly marks a machine whose simulated state depends on how workers
	// interleave (sync_period > 1): its bytes are pinned with one worker only.
	serialOnly bool
	build      func(t *testing.T, workers int) *System
}

// synthetic returns a builder for default-config machines under synthetic
// traffic, with edit applied to the config.
func synthetic(edit func(cfg *config.Config)) func(t *testing.T, workers int) *System {
	return func(t *testing.T, workers int) *System {
		cfg := config.Default()
		cfg.Topology.Width, cfg.Topology.Height = 4, 4
		cfg.Power.EpochCycles = 1000
		cfg.Engine.Seed = 0xB17E5
		cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.06}}
		edit(&cfg)
		cfg.Engine.Workers = workers
		return buildSynthetic(t, cfg)
	}
}

// bytesMachines spans what the router, the buffers and the links branch
// on: every topology kind (the two-wide tori and the two-node ring wire the
// same pair of routers twice), every routing algorithm and VC allocator,
// every traffic pattern, bandwidth-adaptive links, fast-forward with power
// epochs that do not divide the window, loose synchronization, a separate
// injection-port geometry, a router with more than 64 ingress VCs, a
// saturated mesh, and the payload-carrying frontends.
func bytesMachines() []bytesMachine {
	traffic := func(tcs ...config.TrafficConfig) func(cfg *config.Config) {
		return func(cfg *config.Config) { cfg.Traffic = tcs }
	}
	topo := func(kind string, w, h, layers int) func(cfg *config.Config) {
		return func(cfg *config.Config) {
			cfg.Topology = config.TopologyConfig{Kind: kind, Width: w, Height: h, Layers: layers}
		}
	}
	algo := func(alg, vca string, tc config.TrafficConfig) func(cfg *config.Config) {
		return func(cfg *config.Config) {
			cfg.Routing.Algorithm, cfg.Router.VCAlloc = alg, vca
			cfg.Traffic = []config.TrafficConfig{tc}
		}
	}
	ms := []bytesMachine{
		{name: "mesh8/xy/uniform", build: synthetic(func(cfg *config.Config) {
			cfg.Topology.Width, cfg.Topology.Height = 8, 8
			cfg.Traffic[0].InjectionRate = 0.05
		})},
		{name: "mesh5x3/yx", build: synthetic(func(cfg *config.Config) {
			cfg.Topology.Width, cfg.Topology.Height = 5, 3
			cfg.Routing.Algorithm = config.RouteYX
		})},
		{name: "torus4x4", build: synthetic(topo(config.TopoTorus, 4, 4, 0))},
		{name: "torus2x2", build: synthetic(topo(config.TopoTorus, 2, 2, 0))},
		{name: "torus2x3", build: synthetic(topo(config.TopoTorus, 2, 3, 0))},
		{name: "ring2", build: synthetic(topo(config.TopoRing, 2, 1, 0))},
		{name: "ring5", build: synthetic(topo(config.TopoRing, 5, 1, 0))},
		{name: "line6", build: synthetic(topo(config.TopoLine, 6, 1, 0))},
		{name: "mesh-x1/3x3x2", build: synthetic(topo(config.TopoMeshX1, 3, 3, 2))},
		{name: "mesh-x1y1/3x3x2", build: synthetic(topo(config.TopoMeshX1Y1, 3, 3, 2))},
		{name: "mesh-xcube/3x3x2", build: synthetic(topo(config.TopoMeshXCube, 3, 3, 2))},
		{name: "bidirectional/transpose", build: synthetic(func(cfg *config.Config) {
			cfg.Router.Bidirectional = true
			cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.08}}
		})},
		{name: "adaptive/faa/hotspot", build: synthetic(algo(config.RouteAdaptive, config.VCAFAA,
			config.TrafficConfig{Pattern: config.PatternHotspot, InjectionRate: 0.05, HotNodes: []int{5, 10}, HotFrac: 0.5}))},
		{name: "prom/edvca/bitcomp", build: synthetic(algo(config.RoutePROM, config.VCAEDVCA,
			config.TrafficConfig{Pattern: config.PatternBitComplement, InjectionRate: 0.06}))},
		{name: "valiant/static-set/shuffle", build: synthetic(algo(config.RouteValiant, config.VCAStaticSet,
			config.TrafficConfig{Pattern: config.PatternShuffle, InjectionRate: 0.05}))},
		{name: "o1turn/dynamic/tornado", build: synthetic(algo(config.RouteO1Turn, config.VCADynamic,
			config.TrafficConfig{Pattern: config.PatternTornado, InjectionRate: 0.06}))},
		{name: "romm/dynamic/neighbor", build: synthetic(algo(config.RouteROMM, config.VCADynamic,
			config.TrafficConfig{Pattern: config.PatternNeighbor, InjectionRate: 0.08}))},
		{name: "h264", build: synthetic(traffic(config.TrafficConfig{Pattern: config.PatternH264, InjectionRate: 0.02}))},
		{name: "fast-forward/bursty/epoch37", build: synthetic(func(cfg *config.Config) {
			cfg.Engine.FastForward = true
			cfg.Power.EpochCycles = 37
			cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternBitComplement, InjectionRate: 0.2, BurstLen: 20, BurstGap: 300}}
		})},
		{name: "fast-forward/sparse/epoch100", build: synthetic(func(cfg *config.Config) {
			cfg.Engine.FastForward = true
			cfg.Power.EpochCycles = 100
			cfg.Traffic[0].InjectionRate = 0.001
		})},
		{name: "sync-period-5", serialOnly: true, build: synthetic(func(cfg *config.Config) {
			cfg.Engine.SyncPeriod = 5
		})},
		{name: "injection-geometry", build: synthetic(func(cfg *config.Config) {
			cfg.Router.InjVCs, cfg.Router.InjBufFlits = 2, 8
		})},
		{name: "vcs16/multiword-mask", build: synthetic(func(cfg *config.Config) {
			cfg.Router.VCsPerPort, cfg.Router.VCBufFlits = 16, 2
			cfg.Traffic[0].InjectionRate = 0.12
		})},
		{name: "saturated", build: synthetic(func(cfg *config.Config) {
			cfg.Traffic[0].InjectionRate = 0.5
		})},
		{name: "idle", build: synthetic(func(cfg *config.Config) {
			cfg.Traffic[0].InjectionRate = 0
		})},
	}
	for _, fe := range snapFrontends() {
		if fe.name == "synthetic" {
			continue
		}
		fe := fe
		ms = append(ms, bytesMachine{name: "frontend/" + fe.name, build: func(t *testing.T, workers int) *System {
			return fe.build(t, fe.cfg(workers))
		}})
	}
	return ms
}

// snapshotBytesGolden is testdata/snapshot_bytes_golden.json.
type snapshotBytesGolden struct {
	Note     string                       `json:"note"`
	Machines map[string]map[string]string `json:"machines"` // name -> {"mid","final"} -> SHA-256
}

const snapshotBytesNote = "SHA-256 of System.SnapshotBytes() after 1777 cycles (mid) and 2500 cycles later (final), one worker. " +
	"Recorded at commit 168633f (the parent of PR 16), before the occupancy mask touched the router, " +
	"so that a speed-only router change is held to the parent's bytes by a machine: " +
	"re-record (go test ./internal/core -run TestSnapshotBytesGolden -update-snapshot-bytes) only for a " +
	"deliberate change of the snapshot format or of simulated behaviour, and say which."

// TestSnapshotBytesGolden pins the bytes of a mid-run and a final snapshot
// per machine. Summary digests (TestSummaryGolden) see what was delivered;
// snapshot bytes see every buffer, counter, credit, stamp and generator
// position, so a router change that moves a draw or a flit by one cycle
// without changing any statistic still fails here. Machines whose state
// does not depend on worker interleaving must produce the same bytes with
// two workers.
func TestSnapshotBytesGolden(t *testing.T) {
	path := filepath.Join("testdata", "snapshot_bytes_golden.json")
	var want snapshotBytesGolden
	if !*updateSnapshotBytes {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (record it with: go test ./internal/core -run TestSnapshotBytesGolden -update-snapshot-bytes)", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	digests := func(t *testing.T, m bytesMachine, workers int) map[string]string {
		t.Helper()
		sys := m.build(t, workers)
		out := map[string]string{}
		for _, leg := range []struct {
			name   string
			cycles uint64
		}{{"mid", bytesMid}, {"final", bytesRest}} {
			if res := sys.Run(leg.cycles); res.Err != nil {
				t.Fatalf("run to %s: %v", leg.name, res.Err)
			}
			b, err := sys.SnapshotBytes()
			if err != nil {
				t.Fatalf("%s snapshot: %v", leg.name, err)
			}
			out[leg.name] = fmt.Sprintf("%x", sha256.Sum256(b))
		}
		return out
	}
	got := map[string]map[string]string{}
	for _, m := range bytesMachines() {
		t.Run(m.name, func(t *testing.T) {
			one := digests(t, m, 1)
			got[m.name] = one
			if !*updateSnapshotBytes {
				for leg, d := range one {
					if d != want.Machines[m.name][leg] {
						t.Errorf("%s snapshot: SHA-256 %s, golden %s", leg, d, want.Machines[m.name][leg])
					}
				}
			}
			if m.serialOnly {
				return
			}
			for leg, d := range digests(t, m, 2) {
				if d != one[leg] {
					t.Errorf("%s snapshot: 2 workers gave %s, 1 worker %s", leg, d, one[leg])
				}
			}
		})
	}
	if *updateSnapshotBytes {
		b, err := json.MarshalIndent(snapshotBytesGolden{Note: snapshotBytesNote, Machines: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
