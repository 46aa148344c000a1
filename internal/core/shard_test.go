package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

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
// across 2 and 4 in-process "shards" (full system each, span-stepped)
// must produce per-tile statistics byte-identical to the single-process
// run — including when the sharded run is interrupted mid-way by a
// snapshot/restore of every shard (the migration path).
func TestShardedSyntheticByteIdentity(t *testing.T) {
	cycles := uint64(3000)
	if testing.Short() {
		cycles = 1200
	}
	mkCfg := func() config.Config {
		cfg := smallCfg()
		cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.05}}
		return cfg
	}

	ref, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AttachSyntheticTraffic(); err != nil {
		t.Fatal(err)
	}
	refRes := ref.Run(cycles)
	want := statsFingerprint(t, ref)

	for _, tc := range []struct {
		name    string
		count   int
		migrate bool
	}{
		{"2shards", 2, false},
		{"4shards", 4, false},
		{"2shards-migrate", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := newShardHub(tc.count)
			systems := make([]*System, tc.count)
			var wg sync.WaitGroup
			errs := make([]error, tc.count)
			for i := 0; i < tc.count; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sys, err := New(mkCfg())
					if err == nil {
						err = sys.AttachSyntheticTraffic()
					}
					if err == nil {
						err = sys.EnableSharding(i, tc.count, hub.peer(i))
					}
					if err != nil {
						errs[i] = err
						return
					}
					if !tc.migrate {
						if res := sys.Run(cycles); res.Err != nil {
							errs[i] = res.Err
							return
						}
					} else {
						// First half, then snapshot, rebuild, restore and
						// resume — the checkpoint-based shard migration path.
						half := cycles / 2
						if res := sys.Run(half); res.Err != nil {
							errs[i] = res.Err
							return
						}
						blob, err := sys.SnapshotBytes()
						if err != nil {
							errs[i] = err
							return
						}
						sys, err = New(mkCfg())
						if err == nil {
							err = sys.AttachSyntheticTraffic()
						}
						if err == nil {
							err = sys.RestoreBytes(blob)
						}
						if err == nil {
							err = sys.EnableSharding(i, tc.count, hub.peer(i))
						}
						if err != nil {
							errs[i] = err
							return
						}
						if res := sys.RunUntilResumed(cycles-half, nil); res.Err != nil {
							errs[i] = res.Err
							return
						}
					}
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
				if sys.Clock() != ref.Clock() {
					t.Fatalf("shard %d clock %d, single-process %d", i, sys.Clock(), ref.Clock())
				}
				if got := statsFingerprint(t, sys); !bytes.Equal(got, want) {
					t.Errorf("shard %d: per-tile statistics diverged from the single-process run", i)
				}
			}
			_ = refRes
		})
	}
}

// TestEnableShardingRejectsBidirectional: a shard boundary re-arbitrates a
// bidirectional link on the far side's free space of the current cycle,
// one process on the previous cycle's, so 2- and 4-way shards of a busy
// bidirectional mesh delivered different flit counts than the single
// process. Sharding refuses such a machine instead.
func TestEnableShardingRejectsBidirectional(t *testing.T) {
	cfg := smallCfg()
	cfg.Router.Bidirectional = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.EnableSharding(0, 2, newShardHub(2).peer(0))
	if err == nil || !strings.Contains(err.Error(), "bidirectional") {
		t.Fatalf("EnableSharding on a bidirectional machine = %v, want a bidirectional-links error", err)
	}
	if lo, hi := sys.ShardSpan(); lo != 0 || hi != cfg.Topology.Nodes() {
		t.Fatalf("refused sharding left span [%d,%d)", lo, hi)
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
