package core

import (
	"bytes"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/sim"
	"hornet/internal/snapshot"
)

// statsFingerprint serializes every tile's statistics to canonical bytes
// so byte-level identity (not just aggregate equality) is asserted.
func statsFingerprint(t *testing.T, sys *System) []byte {
	t.Helper()
	snap := snapshot.New("fingerprint", sys.Clock())
	w := snap.Section("stats")
	for _, tl := range sys.Tiles() {
		tl.Stats.SaveState(w)
	}
	b, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedSyntheticByteIdentity: a synthetic-traffic run split 2, 3
// and 4 ways — what a `shards: N` submission asks for, N engine workers
// starting from the spans sim.ShardSpan gives — must produce per-tile
// statistics byte-identical to one worker's run, also when the split run
// is interrupted mid-way by a snapshot/restore (the migration path). The
// bidirectional rows are a busy 4x4 mesh, a torus, whose wraparound links
// cross every span, and the busy mesh run in 7-cycle chunks, also
// migrating between them: every chunk opens with a join synchronization,
// which must move no link's grant.
func TestShardedSyntheticByteIdentity(t *testing.T) {
	cycles := uint64(3000)
	if testing.Short() {
		cycles = 1200
	}
	transpose := func() config.Config {
		cfg := smallCfg()
		cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.05}}
		return cfg
	}
	bidirectional := func(kind string) func() config.Config {
		return func() config.Config {
			cfg := smallCfg()
			cfg.Topology.Kind = kind
			cfg.Router.Bidirectional = true
			cfg.Engine.Seed = 21
			cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.20}}
			return cfg
		}
	}

	mesh, torus := bidirectional(config.TopoMesh), bidirectional(config.TopoTorus)

	// refs holds one single-worker run per configuration, shared by the
	// rows that split it.
	type ref struct {
		clock uint64
		stats []byte
	}
	refs := map[string]ref{}
	reference := func(t *testing.T, key string, mkCfg func() config.Config) ref {
		t.Helper()
		if r, ok := refs[key]; ok {
			return r
		}
		sys, err := runSharded(mkCfg, 1, cycles, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		refs[key] = ref{sys.Clock(), statsFingerprint(t, sys)}
		return refs[key]
	}

	for _, tc := range []struct {
		name, cfgName string
		mkCfg         func() config.Config
		count         int
		migrate       bool
		chunk         uint64 // run in chunks of this many cycles; 0 runs once
	}{
		{"2shards", "transpose", transpose, 2, false, 0},
		{"4shards", "transpose", transpose, 4, false, 0},
		{"2shards-migrate", "transpose", transpose, 2, true, 0},
		{"bidirectional/2shards", "mesh", mesh, 2, false, 0},
		{"bidirectional/3shards", "mesh", mesh, 3, false, 0},
		{"bidirectional/4shards", "mesh", mesh, 4, false, 0},
		{"bidirectional/3shards-migrate", "mesh", mesh, 3, true, 0},
		{"bidirectional/2shards-chunked", "mesh", mesh, 2, false, 7},
		{"bidirectional/3shards-chunked", "mesh", mesh, 3, false, 7},
		{"bidirectional/3shards-chunked-migrate", "mesh", mesh, 3, true, 7},
		{"bidirectional/torus/2shards", "torus", torus, 2, false, 0},
		{"bidirectional/torus/4shards", "torus", torus, 4, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mkCfg := tc.mkCfg
			want := reference(t, tc.cfgName, mkCfg)

			sys, err := runSharded(mkCfg, tc.count, cycles, tc.chunk, tc.migrate)
			if err != nil {
				t.Fatal(err)
			}
			if sys.Workers() != tc.count {
				t.Fatalf("the split run has %d engine workers, want %d", sys.Workers(), tc.count)
			}
			if sys.Clock() != want.clock {
				t.Fatalf("clock %d, one worker's %d", sys.Clock(), want.clock)
			}
			if got := statsFingerprint(t, sys); !bytes.Equal(got, want.stats) {
				t.Error("per-tile statistics diverged from one worker's run")
			}
		})
	}
}

// runSharded runs a synthetic-traffic machine for cycles on count engine
// workers. It runs in chunks of chunk cycles (half the run when migrating,
// the whole run when chunk is 0); a migrating run snapshots, rebuilds,
// restores and resumes between chunks — the checkpoint migration path.
func runSharded(mkCfg func() config.Config, count int, cycles, chunk uint64, migrate bool) (*System, error) {
	if chunk == 0 {
		chunk = cycles
		if migrate {
			chunk = cycles / 2
		}
	}
	build := func(blob []byte) (*System, error) {
		cfg := mkCfg()
		cfg.Engine.Workers = count
		sys, err := New(cfg)
		if err == nil {
			err = sys.AttachSyntheticTraffic()
		}
		if err == nil && blob != nil {
			err = sys.RestoreBytes(blob)
		}
		return sys, err
	}
	sys, err := build(nil)
	for err == nil && sys.Clock() < cycles {
		err = sys.RunUntilResumed(min(chunk, cycles-sys.Clock()), nil).Err
		if err == nil && migrate && sys.Clock() < cycles {
			var blob []byte
			if blob, err = sys.SnapshotBytes(); err == nil {
				sys, err = build(blob)
			}
		}
	}
	return sys, err
}

// TestShardedDoubleLinkByteIdentity: a 2-node ring and the two-wide tori
// join one pair of routers by two links, each link with a side on either
// worker's span. Split 2 ways, fixed and bidirectional, each must finish
// within the deadline with per-tile statistics byte-identical to one
// worker's run.
func TestShardedDoubleLinkByteIdentity(t *testing.T) {
	const cycles = 1500
	for _, topo := range []struct {
		name string
		kind string
		w, h int
	}{
		{"ring2", config.TopoRing, 2, 1},
		{"torus2x2", config.TopoTorus, 2, 2},
		{"torus2x3", config.TopoTorus, 2, 3},
	} {
		for _, bidir := range []bool{false, true} {
			name := topo.name + "/fixed"
			if bidir {
				name = topo.name + "/bidirectional"
			}
			t.Run(name, func(t *testing.T) {
				mkCfg := func() config.Config {
					cfg := smallCfg()
					cfg.Topology = config.TopologyConfig{Kind: topo.kind, Width: topo.w, Height: topo.h}
					cfg.Router.Bidirectional = bidir
					cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.3}}
					return cfg
				}
				ref, err := runSharded(mkCfg, 1, cycles, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				want := statsFingerprint(t, ref)
				done := make(chan *System, 1)
				go func() {
					sys, err := runSharded(mkCfg, 2, cycles, 0, false)
					if err != nil {
						t.Error(err)
					}
					done <- sys
				}()
				select {
				case sys := <-done:
					if sys != nil && !bytes.Equal(statsFingerprint(t, sys), want) {
						t.Error("per-tile statistics diverged from one worker's run")
					}
				case <-time.After(30 * time.Second):
					t.Fatal("the split run did not finish")
				}
			})
		}
	}
}

// TestShardedMIPSByteIdentity: a MIPS message-passing workload (nodes 0
// and 15 ping-ponging across the mesh, fast-forward on) split 2 ways must
// stop at the same cycle with the same fast-forward accounting and
// byte-identical statistics as one worker's run. Completion is
// CoresHalted: every core halted and the network drained.
func TestShardedMIPSByteIdentity(t *testing.T) {
	img, err := mips.Assemble(pingPongSrc)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]noc.NodeID, 16)
	for i := range nodes {
		nodes[i] = noc.NodeID(i)
	}
	run := func(workers int) (*System, sim.RunResult) {
		cfg := smallCfg()
		cfg.Engine.FastForward = true
		cfg.Engine.Workers = workers
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cores := sys.AttachMIPS(nodes, img)
		res := sys.RunUntil(2_000_000, sys.CoresHalted(cores))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !res.Stopped || !cores[0].Halted() {
			t.Fatalf("%d workers: the run did not complete", workers)
		}
		return sys, res
	}
	ref, refRes := run(1)
	sys, res := run(2)
	if res.Cycles != refRes.Cycles || res.SkippedCycles != refRes.SkippedCycles || sys.Clock() != ref.Clock() {
		t.Errorf("2 workers: cycles=%d skipped=%d clock=%d, one worker %d/%d/%d",
			res.Cycles, res.SkippedCycles, sys.Clock(), refRes.Cycles, refRes.SkippedCycles, ref.Clock())
	}
	if !bytes.Equal(statsFingerprint(t, sys), statsFingerprint(t, ref)) {
		t.Error("per-tile statistics diverged from one worker's run")
	}
}
