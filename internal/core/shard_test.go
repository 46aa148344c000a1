package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/sim"
	"hornet/internal/snapshot"
)

// shardHub is an in-process group: an all-gather that hands every shard
// all payloads in member order — the contract the serve coordinator
// implements over HTTP.
type shardHub struct {
	mu      sync.Mutex
	cond    *sync.Cond
	in, out [][]byte
	arrived int
	gen     int
}

func newShardHub(n int) *shardHub {
	h := &shardHub{in: make([][]byte, n)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// peer returns member i's end of the hub.
func (h *shardHub) peer(i int) ShardPeer { return hubPeer{h, i} }

type hubPeer struct {
	h *shardHub
	i int
}

func (p hubPeer) Exchange(payload []byte) ([][]byte, error) {
	h := p.h
	h.mu.Lock()
	defer h.mu.Unlock()
	gen := h.gen
	h.in[p.i] = payload
	if h.arrived++; h.arrived == len(h.in) {
		h.out, h.in, h.arrived = h.in, make([][]byte, len(h.in)), 0
		h.gen++
		h.cond.Broadcast()
	}
	for h.gen == gen {
		h.cond.Wait()
	}
	return h.out, nil
}

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

// TestShardedSyntheticByteIdentity: a synthetic-traffic run sharded
// across 2, 3 and 4 in-process "shards" (full system each, span-stepped)
// must produce per-tile statistics byte-identical to the single-process
// run — including when the sharded run is interrupted mid-way by a
// snapshot/restore of every shard (the migration path). The bidirectional
// rows are the busy 4x4 mesh whose 2-shard run once delivered 30139 flits
// against one process's 30393, a torus, whose wraparound links cross every
// span, and the busy mesh run in 7-cycle chunks, also migrating between
// them: every chunk opens with a join synchronization, which must move no
// link's grant.
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

	// refs holds one single-process run per configuration, shared by the
	// rows that shard it.
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
		sys, err := New(mkCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AttachSyntheticTraffic(); err != nil {
			t.Fatal(err)
		}
		if res := sys.Run(cycles); res.Err != nil {
			t.Fatal(res.Err)
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

			systems, err := runSharded(mkCfg, tc.count, cycles, tc.chunk, tc.migrate)
			if err != nil {
				t.Fatal(err)
			}
			for i, sys := range systems {
				if sys.Clock() != want.clock {
					t.Fatalf("shard %d clock %d, single-process %d", i, sys.Clock(), want.clock)
				}
				if got := statsFingerprint(t, sys); !bytes.Equal(got, want.stats) {
					t.Errorf("shard %d: per-tile statistics diverged from the single-process run", i)
				}
			}
		})
	}
}

// runSharded runs a synthetic-traffic machine for cycles as count
// in-process shards and gathers their statistics. Each shard runs in
// chunks of chunk cycles (half the run when migrating, the whole run when
// chunk is 0); a migrating shard snapshots, rebuilds, restores and resumes
// between chunks — the checkpoint-based shard migration path.
func runSharded(mkCfg func() config.Config, count int, cycles, chunk uint64, migrate bool) ([]*System, error) {
	hub := newShardHub(count)
	systems := make([]*System, count)
	errs := make([]error, count)
	if chunk == 0 {
		chunk = cycles
		if migrate {
			chunk = cycles / 2
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			build := func(blob []byte) (*System, error) {
				sys, err := New(mkCfg())
				if err == nil {
					err = sys.AttachSyntheticTraffic()
				}
				if err == nil && blob != nil {
					err = sys.RestoreBytes(blob)
				}
				if err == nil {
					err = sys.EnableSharding(i, count, hub.peer(i))
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
			if err == nil {
				err = sys.ShardGather()
			}
			errs[i], systems[i] = err, sys
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return systems, nil
}

// TestShardedDoubleLinkByteIdentity: a 2-node ring and the two-wide tori
// join one pair of routers by two links, so a boundary names its channels
// and links by port, not by the routers at their ends. Split into 2 shards,
// fixed and bidirectional, each must finish within the deadline (a
// channel named twice left a member waiting for credits that went to the
// other link) with per-tile statistics byte-identical to one process.
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
				ref, err := New(mkCfg())
				if err == nil {
					err = ref.AttachSyntheticTraffic()
				}
				if err != nil {
					t.Fatal(err)
				}
				if res := ref.Run(cycles); res.Err != nil {
					t.Fatal(res.Err)
				}
				want := statsFingerprint(t, ref)
				done := make(chan []*System, 1)
				go func() {
					systems, err := runSharded(mkCfg, 2, cycles, 0, false)
					if err != nil {
						t.Error(err)
					}
					done <- systems
				}()
				select {
				case systems := <-done:
					for i, sys := range systems {
						if got := statsFingerprint(t, sys); !bytes.Equal(got, want) {
							t.Errorf("shard %d: per-tile statistics diverged from the single-process run", i)
						}
					}
				case <-time.After(30 * time.Second):
					t.Fatal("the sharded run did not finish: a member waits for what the other sent to another channel")
				}
			})
		}
	}
}

// echoPeer stands for the sibling of shard 0 of 2: it sends back the
// shard's own payload — or, once foreign is set, that payload instead.
type echoPeer struct{ last, foreign []byte }

func (e *echoPeer) Exchange(p []byte) ([][]byte, error) {
	e.last = p
	if e.foreign != nil {
		return [][]byte{p, e.foreign}, nil
	}
	return [][]byte{p, p}, nil
}

// TestShardPayloadKindsAreNotMisread: synchronization points and the
// statistics exchange send different containers through one all-gather,
// so each kind arriving where the other is expected fails the call.
func TestShardPayloadKindsAreNotMisread(t *testing.T) {
	sharded := func(peer *echoPeer) *System {
		sys, err := New(smallCfg())
		if err == nil {
			err = sys.EnableSharding(0, 2, peer)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res := sys.Run(5); res.Err != nil {
			t.Fatal(res.Err)
		}
		return sys
	}
	syncPeer, statsPeer := &echoPeer{}, &echoPeer{}
	syncSys, statsSys := sharded(syncPeer), sharded(statsPeer)
	syncPayload := syncPeer.last
	if err := statsSys.ShardGather(); err != nil {
		t.Fatal(err)
	}

	syncPeer.foreign = statsPeer.last
	if res := syncSys.Run(5); res.Err == nil || !strings.Contains(res.Err.Error(), secShardVote) {
		t.Errorf("statistics payload at a synchronization point: err = %v, want a missing %q section", res.Err, secShardVote)
	}
	statsPeer.foreign = syncPayload
	if err := statsSys.ShardGather(); err == nil || !strings.Contains(err.Error(), secShardStats) {
		t.Errorf("synchronization payload in the statistics exchange: err = %v, want a missing %q section", err, secShardStats)
	}
}

// TestShardedMIPSByteIdentity: a MIPS message-passing workload (nodes 0
// and 15 ping-ponging across the mesh, fast-forward on) sharded across
// two processes-worth of spans must stop at the same cycle with the
// same fast-forward accounting and byte-identical statistics as the
// single-process run. Completion is the decomposed CoresHalted: every
// span's cores halted and drained AND the global in-flight sum zero.
func TestShardedMIPSByteIdentity(t *testing.T) {
	img, err := mips.Assemble(pingPongSrc)
	if err != nil {
		t.Fatal(err)
	}
	mkCfg := func() config.Config {
		cfg := smallCfg()
		cfg.Engine.FastForward = true
		return cfg
	}
	nodes := func(n int) []noc.NodeID {
		out := make([]noc.NodeID, n)
		for i := range out {
			out[i] = noc.NodeID(i)
		}
		return out
	}

	ref, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	cores := ref.AttachMIPS(nodes(16), img)
	refRes := ref.RunUntil(2_000_000, ref.CoresHalted(cores))
	if !cores[0].Halted() {
		t.Fatal("single-process run did not complete")
	}
	want := statsFingerprint(t, ref)

	const count = 2
	hub := newShardHub(count)
	systems := make([]*System, count)
	results := make([]sim.RunResult, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys, err := New(mkCfg())
			if err != nil {
				errs[i] = err
				return
			}
			sys.AttachMIPS(nodes(16), img)
			if err := sys.EnableSharding(i, count, hub.peer(i)); err != nil {
				errs[i] = err
				return
			}
			res := sys.RunUntil(2_000_000, nil)
			if res.Err != nil {
				errs[i] = res.Err
				return
			}
			results[i] = res
			errs[i] = sys.ShardGather()
			systems[i] = sys
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	for i, sys := range systems {
		if !results[i].Stopped {
			t.Errorf("shard %d: completion not reported as Stopped", i)
		}
		if results[i].Cycles != refRes.Cycles || results[i].SkippedCycles != refRes.SkippedCycles {
			t.Errorf("shard %d: cycles=%d skipped=%d, single-process %d/%d",
				i, results[i].Cycles, results[i].SkippedCycles, refRes.Cycles, refRes.SkippedCycles)
		}
		if sys.Clock() != ref.Clock() {
			t.Errorf("shard %d clock %d, single-process %d", i, sys.Clock(), ref.Clock())
		}
		if got := statsFingerprint(t, sys); !bytes.Equal(got, want) {
			t.Errorf("shard %d: per-tile statistics diverged from the single-process run", i)
		}
	}
}
