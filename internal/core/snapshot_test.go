package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hornet/internal/config"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/snapshot"
	"hornet/internal/sweep"
	"hornet/internal/trace"
	"hornet/internal/workloads"
)

// This file is the snapshot subsystem's golden round-trip harness: for
// every snapshottable frontend, at several worker counts and snapshot
// cycles, run A cycles → snapshot → restore into a fresh system → run B
// cycles must be indistinguishable — byte for byte — from running A+B
// cycles uninterrupted. The harness is table-driven so a new frontend
// adds one entry, not one hand-rolled test.

// snapFrontend describes one frontend configuration under golden test:
// how to build an identically configured system, and the total simulated
// window (phase A + phase B) the round trip covers.
type snapFrontend struct {
	name string
	// total is the A+B window; snapshot cycles are fractions of it.
	total uint64
	cfg   func(workers int) config.Config
	build func(t *testing.T, cfg config.Config) *System
}

// snapCfg returns a small config exercising multiple traffic processes
// (Bernoulli + bursty) so snapshots capture mid-flight state.
func snapCfg(workers int) config.Config {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Engine.Workers = workers
	cfg.Engine.Seed = 0xC0FFEE
	cfg.WarmupCycles = 300
	cfg.AnalyzedCycles = 400
	cfg.Traffic = []config.TrafficConfig{
		{Pattern: config.PatternTranspose, InjectionRate: 0.10},
		{Pattern: config.PatternUniform, InjectionRate: 0.05, BurstLen: 40, BurstGap: 60},
	}
	return cfg
}

// mipsCfg is the application-workload base: a 2x2 mesh, no synthetic
// traffic.
func mipsCfg(workers int) config.Config {
	cfg := snapCfg(workers)
	cfg.Topology.Width, cfg.Topology.Height = 2, 2
	cfg.Traffic = nil
	return cfg
}

func buildSynthetic(t *testing.T, cfg config.Config) *System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.AttachSyntheticTraffic(); err != nil {
		t.Fatalf("AttachSyntheticTraffic: %v", err)
	}
	return sys
}

// harnessTrace is the fixed trace the trace frontends replay.
func harnessTrace() *trace.Trace {
	tr := &trace.Trace{}
	tr.AddPeriodic(5, 0, 15, 4, 37, 50)
	tr.AddPeriodic(11, 7, 2, 2, 23, 40)
	tr.Add(400, 3, 12, 8)
	return tr
}

func assembleOrDie(t *testing.T, src string) *mips.Image {
	t.Helper()
	img, err := mips.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return img
}

// allNodes lists every node of a built system.
func allNodes(sys *System) []noc.NodeID {
	nodes := make([]noc.NodeID, sys.Topo.Nodes())
	for i := range nodes {
		nodes[i] = noc.NodeID(i)
	}
	return nodes
}

// snapFrontends is the golden-harness table: every snapshottable
// frontend kind, including the payload-bearing ones (MIPS private
// memory, MIPS over the coherent fabric in both protocols, trace-mode
// memory controllers). Windows are sized so early/mid/late snapshot
// points land while the workload is genuinely mid-flight.
func snapFrontends() []snapFrontend {
	return []snapFrontend{
		{
			name:  "synthetic",
			total: 700,
			cfg:   snapCfg,
			build: buildSynthetic,
		},
		{
			name:  "trace",
			total: 900,
			cfg: func(workers int) config.Config {
				cfg := snapCfg(workers)
				cfg.Traffic = nil
				return cfg
			},
			build: func(t *testing.T, cfg config.Config) *System {
				sys, err := New(cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				sys.AttachTrace(harnessTrace())
				return sys
			},
		},
		{
			name:  "trace-mc",
			total: 900,
			cfg: func(workers int) config.Config {
				cfg := snapCfg(workers)
				cfg.Traffic = nil
				return cfg
			},
			build: func(t *testing.T, cfg config.Config) *System {
				sys, err := New(cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				tr := &trace.Trace{}
				tr.AddPeriodic(3, 5, 0, 4, 17, 45) // requests into the MC tile
				tr.AddPeriodic(9, 10, 0, 4, 29, 30)
				sys.AttachTrace(tr)
				sys.AttachTraceControllers([]noc.NodeID{0}, 50, 8)
				return sys
			},
		},
		{
			name:  "mips-private",
			total: 1600,
			cfg:   mipsCfg,
			build: func(t *testing.T, cfg config.Config) *System {
				sys, err := New(cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				img := assembleOrDie(t, workloads.PingPongSource(40))
				sys.AttachMIPS(allNodes(sys), img)
				return sys
			},
		},
		{
			name:  "mips-shared-msi",
			total: 1800,
			cfg:   mipsCfg,
			build: func(t *testing.T, cfg config.Config) *System {
				sys, err := New(cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				mc := *config.DefaultMemory()
				fab, err := sys.AttachMemory(mc)
				if err != nil {
					t.Fatalf("AttachMemory: %v", err)
				}
				img := assembleOrDie(t, workloads.SharedPingPongSource(40, 3))
				sys.AttachMIPSShared([]noc.NodeID{0, 3}, img, fab, mc)
				return sys
			},
		},
		{
			name:  "mips-shared-nuca",
			total: 1400,
			cfg:   mipsCfg,
			build: func(t *testing.T, cfg config.Config) *System {
				sys, err := New(cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				mc := *config.DefaultMemory()
				mc.Protocol = "nuca"
				fab, err := sys.AttachMemory(mc)
				if err != nil {
					t.Fatalf("AttachMemory: %v", err)
				}
				img := assembleOrDie(t, workloads.SharedPingPongSource(40, 3))
				sys.AttachMIPSShared([]noc.NodeID{0, 3}, img, fab, mc)
				return sys
			},
		},
	}
}

// snapPoints returns the snapshot cycles exercised for a frontend:
// early (workload starting up), mid (steady state), late (possibly
// draining).
func snapPoints(total uint64) map[string]uint64 {
	return map[string]uint64{
		"early": total / 10,
		"mid":   total / 2,
		"late":  total * 9 / 10,
	}
}

// TestSnapshotRoundTripGolden is the subsystem's core property, run over
// the full frontend × worker count × snapshot cycle grid:
// run A cycles → snapshot → restore into a fresh system → run B cycles
// must be indistinguishable — byte for byte — from running A+B cycles
// with a snapshot/restore-free boundary.
func TestSnapshotRoundTripGolden(t *testing.T) {
	workerSet := []int{1, 2, 3}
	pointSet := []string{"early", "mid", "late"}
	if testing.Short() {
		workerSet = []int{1, 2}
		pointSet = []string{"early", "mid"}
	}
	for _, fe := range snapFrontends() {
		for _, workers := range workerSet {
			for _, point := range pointSet {
				t.Run(fmt.Sprintf("%s/w%d/%s", fe.name, workers, point), func(t *testing.T) {
					cfg := fe.cfg(workers)
					snapAt := snapPoints(fe.total)[point]

					// Reference: one system, two back-to-back runs (the
					// phase boundary exists in both executions, so
					// fast-forward chunking cannot differ).
					ref := fe.build(t, cfg)
					ref.Run(snapAt)
					blob, err := ref.SnapshotBytes()
					if err != nil {
						t.Fatalf("snapshot: %v", err)
					}
					ref.Run(fe.total - snapAt)
					refFinal, err := ref.SnapshotBytes()
					if err != nil {
						t.Fatalf("final snapshot: %v", err)
					}

					// Restored: a fresh system resumed from the mid-run
					// snapshot.
					res := fe.build(t, cfg)
					if err := res.RestoreBytes(blob); err != nil {
						t.Fatalf("restore: %v", err)
					}
					if res.Clock() != snapAt {
						t.Fatalf("restored clock %d, want %d", res.Clock(), snapAt)
					}
					res.Run(fe.total - snapAt)
					resFinal, err := res.SnapshotBytes()
					if err != nil {
						t.Fatalf("final snapshot after restore: %v", err)
					}

					if !bytes.Equal(refFinal, resFinal) {
						t.Errorf("continued state diverged from uninterrupted run (final snapshots differ)")
					}
					if !reflect.DeepEqual(ref.Summary(), res.Summary()) {
						t.Errorf("summaries diverged:\nref: %+v\nres: %+v", ref.Summary(), res.Summary())
					}
				})
			}
		}
	}
}

// blockedOnCredit reports whether some ingress VC of the system is stuck
// mid-packet behind a downstream VC with no credit: a downstream buffer is
// full, the packet at its head is longer than what the buffer holds, and
// an ingress VC of the producing router has that packet's next flit at its
// head.
func blockedOnCredit(sys *System) bool {
	const anyCycle = ^uint64(0)
	for _, tile := range sys.Tiles() {
		ports := tile.Router.Ports()
		for _, eg := range ports {
			for _, down := range eg.Out {
				head, ok := down.Peek(anyCycle)
				if !ok || down.Len() != down.Capacity() || int(head.Seq)+down.Capacity() >= int(head.Len) {
					continue
				}
				for _, in := range ports {
					for _, buf := range in.In {
						if next, ok := buf.Peek(anyCycle); ok && next.Packet == head.Packet {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// headOnLink reports whether some ingress VC holds exactly one flit that
// was pushed during the last executed cycle, so that it becomes visible
// only in the next one.
func headOnLink(sys *System) bool {
	for _, tile := range sys.Tiles() {
		for _, p := range tile.Router.Ports() {
			for _, buf := range p.In {
				if buf.Len() != 1 {
					continue
				}
				if _, ok := buf.Peek(sys.Clock() - 1); ok {
					continue
				}
				if _, ok := buf.Peek(sys.Clock()); ok {
					return true
				}
			}
		}
	}
	return false
}

// TestSnapshotRoundTripDerivedRouterState restores snapshots taken in the
// two situations where a router leans hardest on state it derives and
// does not serialize — a VC blocked on credit mid-packet (the cached
// pointer to its downstream VC and that VC's producer-side credit word
// decide every cycle that it stays put) and a head flit pushed but not yet
// visible (the cached head descriptor of a VC that just filled) — and
// requires the continued run to end exactly as the uninterrupted one: the
// derived state must be rebuilt from the snapshot, not carried over or
// left stale.
func TestSnapshotRoundTripDerivedRouterState(t *testing.T) {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Engine.Workers = 1
	cfg.Engine.Seed = 0xB10C4ED
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.25}}
	const total = 1200

	whole := buildSynthetic(t, cfg)
	whole.Run(total)
	want := whole.Summary()
	wantFinal, err := whole.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}

	ref := buildSynthetic(t, cfg)
	ref.Run(300)
	restored := 0
	for ref.Clock() < 340 {
		ref.Run(1)
		if !blockedOnCredit(ref) || !headOnLink(ref) {
			continue
		}
		at := ref.Clock()
		blob, err := ref.SnapshotBytes()
		if err != nil {
			t.Fatalf("snapshot at %d: %v", at, err)
		}
		for _, workers := range []int{1, 2} {
			resCfg := cfg
			resCfg.Engine.Workers = workers
			res := buildSynthetic(t, resCfg)
			if err := res.RestoreBytes(blob); err != nil {
				t.Fatalf("restore at %d: %v", at, err)
			}
			if !blockedOnCredit(res) || !headOnLink(res) {
				t.Fatalf("cycle %d: the restored system does not show the blocked VC and the flit on the link", at)
			}
			res.Run(total - at)
			if got := res.Summary(); !reflect.DeepEqual(want, got) {
				t.Fatalf("snapshot at cycle %d, %d workers: summaries diverged:\nuninterrupted: %+v\nrestored:      %+v",
					at, workers, want, got)
			}
			resFinal, err := res.SnapshotBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantFinal, resFinal) {
				t.Fatalf("snapshot at cycle %d, %d workers: final states differ", at, workers)
			}
		}
		restored++
		if restored == 5 {
			break
		}
	}
	if restored == 0 {
		t.Fatal("no cycle in the window had both a VC blocked on credit mid-packet and a head flit on the link")
	}
}

// TestSnapshotRoundTripParkedVCs snapshots an 8x8 mesh mid-saturation, with
// dozens of VCs parked on credits. Who is parked is derived state — not in
// the snapshot, and byte for byte the snapshot is the one the parent commit
// wrote (TestSnapshotBytesGolden) — so a restored machine starts with every
// resident VC awake, its first pass parks the blocked ones again, and the
// continued run, on one to three workers, ends exactly as the uninterrupted
// one.
func TestSnapshotRoundTripParkedVCs(t *testing.T) {
	cfg := config.Default()
	cfg.Engine.Workers = 1
	cfg.Engine.Seed = 0x9A4CED
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternShuffle, InjectionRate: 0.05}}
	const at, total = 1500, 3000

	ref := buildSynthetic(t, cfg)
	ref.Run(at)
	if n := parkedVCs(t, ref); n < 20 {
		t.Fatalf("only %d VCs are parked at the snapshot: the machine is not saturated", n)
	}
	blob, err := ref.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(total - at)
	want := ref.Summary()
	wantFinal, err := ref.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 3; workers++ {
		resCfg := cfg
		resCfg.Engine.Workers = workers
		res := buildSynthetic(t, resCfg)
		if err := res.RestoreBytes(blob); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if n := parkedVCs(t, res); n != 0 {
			t.Fatalf("%d workers: %d VCs are parked before the restored machine has run a cycle", workers, n)
		}
		res.Run(1)
		if n := parkedVCs(t, res); n == 0 {
			t.Fatalf("%d workers: the first pass after the restore parked nothing", workers)
		}
		res.Run(total - at - 1)
		if got := res.Summary(); !reflect.DeepEqual(want, got) {
			t.Fatalf("%d workers: summaries diverged:\nuninterrupted: %+v\nrestored:      %+v", workers, want, got)
		}
		resFinal, err := res.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantFinal, resFinal) {
			t.Fatalf("%d workers: final states differ", workers)
		}
	}
}

// TestSnapshotRoundTripAcrossWorkerCounts checks, for every frontend,
// that a snapshot taken at one worker count restores into a system
// running at another and still reproduces the uninterrupted execution
// (worker count is excluded from the snapshot identity).
func TestSnapshotRoundTripAcrossWorkerCounts(t *testing.T) {
	fes := snapFrontends()
	if testing.Short() {
		fes = fes[:4] // synthetic, trace, trace-mc, mips-private
	}
	for _, fe := range fes {
		t.Run(fe.name, func(t *testing.T) {
			snapAt := fe.total / 2
			ref := fe.build(t, fe.cfg(1))
			ref.Run(snapAt)
			blob, err := ref.SnapshotBytes()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			ref.Run(fe.total - snapAt)
			refFinal, err := ref.SnapshotBytes()
			if err != nil {
				t.Fatalf("final snapshot: %v", err)
			}

			res := fe.build(t, fe.cfg(2)) // same identity: workers excluded from the hash
			if err := res.RestoreBytes(blob); err != nil {
				t.Fatalf("restore into 2-worker system: %v", err)
			}
			res.Run(fe.total - snapAt)
			resFinal, err := res.SnapshotBytes()
			if err != nil {
				t.Fatalf("final snapshot after restore: %v", err)
			}
			if !bytes.Equal(refFinal, resFinal) {
				t.Errorf("state diverged across worker counts (final snapshots differ)")
			}
			if !reflect.DeepEqual(ref.Summary(), res.Summary()) {
				t.Errorf("summaries diverged across worker counts:\nref: %+v\nres: %+v",
					ref.Summary(), res.Summary())
			}
		})
	}
}

// TestSnapshotMIPSRunsToCompletion restores a mid-run MIPS snapshot and
// checks the application-level outcome — console output and halt state —
// matches the uninterrupted run, not just the network statistics.
func TestSnapshotMIPSRunsToCompletion(t *testing.T) {
	cfg := mipsCfg(1)
	img := assembleOrDie(t, workloads.PingPongSource(30))
	build := func() *System {
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		sys.AttachMIPS(allNodes(sys), img)
		return sys
	}
	ref := build()
	ref.Run(400) // mid-run: rounds still in flight
	blob, err := ref.SnapshotBytes()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ref.RunUntil(1_000_000, ref.CoresHalted(ref.MIPSCores()))

	res := build()
	if err := res.RestoreBytes(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	res.RunUntil(1_000_000, res.CoresHalted(res.MIPSCores()))

	for i := range ref.MIPSCores() {
		rc, cc := ref.MIPSCores()[i], res.MIPSCores()[i]
		if rc.Console() != cc.Console() || rc.Halted() != cc.Halted() || rc.Instret != cc.Instret {
			t.Errorf("core %d diverged: ref console=%q halted=%v instret=%d; res console=%q halted=%v instret=%d",
				i, rc.Console(), rc.Halted(), rc.Instret, cc.Console(), cc.Halted(), cc.Instret)
		}
	}
	if got := ref.MIPSCores()[0].Console(); got != "30" {
		t.Fatalf("reference run printed %q, want 30", got)
	}
	if ref.Clock() != res.Clock() {
		t.Errorf("halt cycles differ: ref %d, res %d", ref.Clock(), res.Clock())
	}
}

// TestWarmupCacheMIPSSharedMem proves warmup-once/fork-many works for an
// application workload over the coherent-memory fabric: the second
// WarmedSystem call restores the cached warmup snapshot instead of
// re-simulating, and both systems finish with identical application
// output and statistics — matching a cache-free run bit for bit.
func TestWarmupCacheMIPSSharedMem(t *testing.T) {
	cfg := mipsCfg(1)
	const warmup = 500
	img := assembleOrDie(t, workloads.SharedPingPongSource(40, 3))
	mc := *config.DefaultMemory()
	build := func() (*System, error) {
		sys, err := New(cfg)
		if err != nil {
			return nil, err
		}
		fab, err := sys.AttachMemory(mc)
		if err != nil {
			return nil, err
		}
		sys.AttachMIPSShared([]noc.NodeID{0, 3}, img, fab, mc)
		return sys, nil
	}
	finish := func(sys *System) (string, uint64) {
		sys.RunUntil(1_000_000, sys.CoresHalted(sys.MIPSCores()))
		return sys.MIPSCores()[0].Console(), sys.Clock()
	}

	cache := sweep.NewSnapshotCache(t.TempDir())
	var consoles []string
	var clocks []uint64
	for i := 0; i < 2; i++ {
		sys, err := WarmedSystem(context.Background(), cache, cfg, warmup, nil, build)
		if err != nil {
			t.Fatalf("WarmedSystem #%d: %v", i, err)
		}
		console, clock := finish(sys)
		consoles = append(consoles, console)
		clocks = append(clocks, clock)
	}
	if cache.Misses() != 1 || cache.Hits() != 1 {
		t.Errorf("warmup cache: misses=%d hits=%d, want 1 and 1", cache.Misses(), cache.Hits())
	}
	if consoles[0] != consoles[1] || clocks[0] != clocks[1] {
		t.Errorf("forked run diverged: consoles %q, clocks %v", consoles, clocks)
	}

	// A cache-free run must agree bit for bit.
	direct, err := WarmedSystem(context.Background(), nil, cfg, warmup, nil, build)
	if err != nil {
		t.Fatalf("direct WarmedSystem: %v", err)
	}
	console, clock := finish(direct)
	if console != consoles[0] || clock != clocks[0] {
		t.Errorf("cache-free run diverged: console %q vs %q, clock %d vs %d",
			console, consoles[0], clock, clocks[0])
	}
	if console != "40" {
		t.Fatalf("shared ping-pong printed %q, want 40", console)
	}
}

// TestSnapshotRejectsWrongConfig: the hash guard must refuse a snapshot
// from a different configuration with a structured MismatchError.
func TestSnapshotRejectsWrongConfig(t *testing.T) {
	sys := buildSynthetic(t, snapCfg(1))
	sys.Run(100)
	blob, err := sys.SnapshotBytes()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	other := snapCfg(1)
	other.Traffic[0].InjectionRate = 0.2 // different identity
	dst := buildSynthetic(t, other)
	err = dst.RestoreBytes(blob)
	var mm *snapshot.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("restore into different config: got %v, want *snapshot.MismatchError", err)
	}
	if mm.Field != "config_hash" {
		t.Errorf("mismatch field = %q, want config_hash", mm.Field)
	}
}

// TestSnapshotRejectsWrongProgram: two systems with identical configs
// but different MIPS program images hash identically, so the image
// fingerprint inside the mips section must catch the divergence.
func TestSnapshotRejectsWrongProgram(t *testing.T) {
	cfg := mipsCfg(1)
	build := func(rounds int) *System {
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		sys.AttachMIPS(allNodes(sys), assembleOrDie(t, workloads.PingPongSource(rounds)))
		return sys
	}
	ref := build(40)
	ref.Run(200)
	blob, err := ref.SnapshotBytes()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	err = build(41).RestoreBytes(blob)
	var mm *snapshot.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("restore under different program: got %v, want *snapshot.MismatchError", err)
	}
	if mm.Field != "mips program image" {
		t.Errorf("mismatch field = %q, want mips program image", mm.Field)
	}
}

// TestSnapshotRejectsWrongPreload: the backing stores are delta-encoded
// against the preloaded image, so restoring over a different preload
// must be refused (silently applying the delta would corrupt memory).
func TestSnapshotRejectsWrongPreload(t *testing.T) {
	cfg := mipsCfg(1)
	mc := *config.DefaultMemory()
	img := assembleOrDie(t, workloads.SharedPingPongSource(20, 3))
	build := func(preload []byte) *System {
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		fab, err := sys.AttachMemory(mc)
		if err != nil {
			t.Fatalf("AttachMemory: %v", err)
		}
		fab.Preload(0x4000, preload)
		sys.AttachMIPSShared([]noc.NodeID{0, 3}, img, fab, mc)
		return sys
	}
	ref := build([]byte{1, 2, 3, 4})
	ref.Run(200)
	blob, err := ref.SnapshotBytes()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	err = build([]byte{9, 9, 9, 9}).RestoreBytes(blob)
	var mm *snapshot.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("restore over different preload: got %v, want *snapshot.MismatchError", err)
	}
	if mm.Field != "preloaded memory image" {
		t.Errorf("mismatch field = %q, want preloaded memory image", mm.Field)
	}
}

// TestSnapshotRejectsFrontendMismatch: attachments are not part of the
// config hash, so the section-presence guard must refuse a snapshot
// whose frontends differ from the restoring system's.
func TestSnapshotRejectsFrontendMismatch(t *testing.T) {
	cfg := mipsCfg(1)
	cfg.Traffic = nil
	plain, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	plain.Run(100)
	blob, err := plain.SnapshotBytes()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	withMIPS, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	withMIPS.AttachMIPS(allNodes(withMIPS), assembleOrDie(t, workloads.PingPongSource(5)))
	err = withMIPS.RestoreBytes(blob)
	var mm *snapshot.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("restore into differently attached system: got %v, want *snapshot.MismatchError", err)
	}
}

// TestSnapshotRejectsCorruption: flipped payload bytes must surface as
// CorruptError (checksum), as must truncation.
func TestSnapshotRejectsCorruption(t *testing.T) {
	sys := buildSynthetic(t, snapCfg(1))
	sys.Run(100)
	blob, err := sys.SnapshotBytes()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xFF
	var ce *snapshot.CorruptError
	if err := buildSynthetic(t, snapCfg(1)).RestoreBytes(bad); !errors.As(err, &ce) {
		t.Errorf("bit-flipped snapshot: got %v, want *snapshot.CorruptError", err)
	}

	if err := buildSynthetic(t, snapCfg(1)).RestoreBytes(blob[:37]); !errors.As(err, &ce) {
		t.Errorf("truncated snapshot: got %v, want *snapshot.CorruptError", err)
	}
}

// mipsMidRunSnapshot produces a mid-run snapshot of a MIPS system with
// traffic (and payloads) in flight, plus a builder for the restoring
// side.
func mipsMidRunSnapshot(t *testing.T) (*snapshot.Snapshot, func() *System) {
	t.Helper()
	cfg := mipsCfg(1)
	img := assembleOrDie(t, workloads.PingPongSource(40))
	build := func() *System {
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		sys.AttachMIPS(allNodes(sys), img)
		return sys
	}
	ref := build()
	// Advance until user payloads are actually in flight so the payload
	// codec path is exercised (ping-pong keeps the network busy).
	var snap *snapshot.Snapshot
	for i := 0; i < 400; i++ {
		ref.Run(1)
		if ref.InFlight() > 0 {
			s, err := ref.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			if m, ok, _ := s.ReadManifest(); ok && m.Payloads > 0 {
				snap = s
				break
			}
		}
	}
	if snap == nil {
		t.Fatal("never observed an in-flight payload to snapshot")
	}
	return snap, build
}

// TestSnapshotSectionCorruption targets the new frontend codecs past the
// container checksum: a truncated mips section and a bit-flipped payload
// codec tag must surface as structured Corrupt/Mismatch errors — never a
// panic — after re-encoding recomputes the container CRC.
func TestSnapshotSectionCorruption(t *testing.T) {
	snap, build := mipsMidRunSnapshot(t)

	reencode := func(mutate func(s *snapshot.Snapshot)) []byte {
		b, err := snap.Bytes()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		s2, err := snapshot.DecodeBytes(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		mutate(s2)
		out, err := s2.Bytes()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		return out
	}

	t.Run("truncated-mips-section", func(t *testing.T) {
		bad := reencode(func(s *snapshot.Snapshot) {
			p, ok := s.SectionPayload("mips")
			if !ok {
				t.Fatal("snapshot has no mips section")
			}
			s.SetSection("mips", p[:len(p)-7])
		})
		err := build().RestoreBytes(bad)
		var ce *snapshot.CorruptError
		var mm *snapshot.MismatchError
		if !errors.As(err, &ce) && !errors.As(err, &mm) {
			t.Fatalf("truncated mips section: got %v, want structured snapshot error", err)
		}
	})

	t.Run("corrupt-payload-codec-tag", func(t *testing.T) {
		bad := reencode(func(s *snapshot.Snapshot) {
			p, ok := s.SectionPayload("tiles")
			if !ok {
				t.Fatal("snapshot has no tiles section")
			}
			// The []byte payload codec writes its name "bytes" before
			// each user payload; corrupting the tag must yield "unknown
			// payload codec", not a misread.
			i := bytes.Index(p, []byte("bytes"))
			if i < 0 {
				t.Skip("no payload codec tag in tiles section at this cycle")
			}
			p[i] = 'X'
			s.SetSection("tiles", p)
		})
		err := build().RestoreBytes(bad)
		var ce *snapshot.CorruptError
		var mm *snapshot.MismatchError
		if !errors.As(err, &ce) && !errors.As(err, &mm) {
			t.Fatalf("corrupt codec tag: got %v, want structured snapshot error", err)
		}
	})

	t.Run("truncated-mem-section", func(t *testing.T) {
		cfg := mipsCfg(1)
		mc := *config.DefaultMemory()
		img := assembleOrDie(t, workloads.SharedPingPongSource(30, 3))
		buildShared := func() *System {
			sys, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			fab, err := sys.AttachMemory(mc)
			if err != nil {
				t.Fatalf("AttachMemory: %v", err)
			}
			sys.AttachMIPSShared([]noc.NodeID{0, 3}, img, fab, mc)
			return sys
		}
		ref := buildShared()
		ref.Run(300)
		snap, err := ref.Snapshot()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		p, ok := snap.SectionPayload("mem")
		if !ok {
			t.Fatal("snapshot has no mem section")
		}
		snap.SetSection("mem", p[:len(p)/2])
		b, err := snap.Bytes()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		err = buildShared().RestoreBytes(b)
		var ce *snapshot.CorruptError
		var mm *snapshot.MismatchError
		if !errors.As(err, &ce) && !errors.As(err, &mm) {
			t.Fatalf("truncated mem section: got %v, want structured snapshot error", err)
		}
	})
}

// TestRestoreRequiresFreshSystem: restoring over a system that already
// ran would splice two histories; it must be refused.
func TestRestoreRequiresFreshSystem(t *testing.T) {
	sys := buildSynthetic(t, snapCfg(1))
	sys.Run(50)
	blob, err := sys.SnapshotBytes()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := sys.RestoreBytes(blob); err == nil {
		t.Fatal("restore into a running system succeeded, want error")
	}
}

// TestRestoreRefusesShardMemberSnapshot: a member of a cross-process shard
// group wrote a "shard" section (its index, the member count and its tile
// span) and an in-flight counter of its own span's traffic. No system can
// take that state back, so a restore must refuse the blob by the section's
// name instead of loading a counter that does not count the network.
func TestRestoreRefusesShardMemberSnapshot(t *testing.T) {
	sys := buildSynthetic(t, snapCfg(1))
	sys.Run(200)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	w := snap.Section("shard")
	for _, v := range []int{0, 2, 0, 8} { // member 0 of 2, tiles [0,8)
		w.Int(v)
	}
	blob, err := snap.Bytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	err = buildSynthetic(t, snapCfg(1)).RestoreBytes(blob)
	var ce *snapshot.CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Detail, `"shard"`) {
		t.Fatalf("restoring a shard member's snapshot: got %v, want a corrupt-snapshot error naming the \"shard\" section", err)
	}
}

// TestSnapshotManifest: the manifest section describes the attached
// frontends and payload counts for inspection tools.
func TestSnapshotManifest(t *testing.T) {
	snap, _ := mipsMidRunSnapshot(t)
	m, ok, err := snap.ReadManifest()
	if err != nil || !ok {
		t.Fatalf("ReadManifest: ok=%v err=%v", ok, err)
	}
	if m.Nodes != 4 || m.MIPSCores != 4 {
		t.Errorf("manifest counts wrong: %+v", m)
	}
	if len(m.Frontends) != 1 || m.Frontends[0] != "mips" {
		t.Errorf("manifest frontends = %v, want [mips]", m.Frontends)
	}
	if m.Payloads < 1 {
		t.Errorf("manifest payloads = %d, want >= 1", m.Payloads)
	}
	if m.InFlightFlits < 1 {
		t.Errorf("manifest in-flight flits = %d, want >= 1", m.InFlightFlits)
	}
}
