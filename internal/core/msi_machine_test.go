package core

import (
	"encoding/binary"
	"testing"

	"hornet/internal/config"
	"hornet/internal/mips"
	"hornet/internal/noc"
)

// The whole-machine instrument for the core and memory layers: a 4x4 MSI
// machine whose 16 cores all stay busy on one shared array. It is the
// machine of the allocation guard below and of BenchmarkMSIMachineCycle,
// which `make profile-msi` runs under the CPU and allocation profilers.

const (
	msiSliceWords = 48          // words per core's slice: six 32-byte lines
	msiSlicePitch = 224         // bytes between slice bases: one spare line, so no line has two owners
	msiArrayBase  = 0x0010_0000 // shared array; the per-core iteration counters are at 0x80000
)

// msiRingSrc is a ring stencil that never ends: every iteration core c
// reads both ring neighbours' slices (lines their owners just wrote: miss,
// forward, downgrade), then adds c+1 to every word of its own (upgrades
// that invalidate the neighbours' copies; seven hits per line between the
// misses) and stores its iteration count.
const msiRingSrc = `
main:
	li   $v0, 64
	syscall
	move $s0, $v0        # id
	li   $v0, 65
	syscall
	move $s1, $v0        # cores
	addu $t0, $s0, $s1
	addiu $t0, $t0, -1
	div  $t0, $s1
	mfhi $t0             # left neighbour
	addiu $t1, $s0, 1
	div  $t1, $s1
	mfhi $t1             # right neighbour
	li   $t2, 224        # pitch
	li   $t4, 0x100000   # array base
	mul  $t3, $s0, $t2
	addu $s2, $t3, $t4   # own slice
	mul  $t3, $t0, $t2
	addu $s3, $t3, $t4   # left slice
	mul  $t3, $t1, $t2
	addu $s4, $t3, $t4   # right slice
	addiu $t8, $s0, 1    # own increment
	li   $s6, 0          # checksum of everything read
	li   $s7, 0          # completed iterations
	sll  $t9, $s0, 5
	li   $t4, 0x80000
	addu $t9, $t9, $t4   # own counter line
iter:
	move $t0, $s3
	move $t1, $s4
	li   $t2, 48
rd:
	lw   $t3, 0($t0)
	lw   $t4, 0($t1)
	addu $s6, $s6, $t3
	xor  $s6, $s6, $t4
	sll  $t5, $s6, 5
	srl  $t6, $s6, 27
	or   $s6, $t5, $t6
	addiu $t0, $t0, 4
	addiu $t1, $t1, 4
	addiu $t2, $t2, -1
	bgtz $t2, rd
	move $t0, $s2
	li   $t2, 48
wr:
	lw   $t3, 0($t0)
	addu $t3, $t3, $t8
	sw   $t3, 0($t0)
	addiu $t0, $t0, 4
	addiu $t2, $t2, -1
	bgtz $t2, wr
	addiu $s7, $s7, 1
	sw   $s7, 0($t9)
	b    iter
`

// buildMSIMachine builds the machine with the array preloaded (word j of
// slice c holds c<<16|j) and a core on every tile, one engine worker.
func buildMSIMachine(tb testing.TB) (*System, []*mips.Core, *memoryFabric) {
	tb.Helper()
	img, err := mips.Assemble(msiRingSrc)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Traffic = nil
	cfg.Engine = config.EngineConfig{Workers: 1, SyncPeriod: 1, Seed: 1}
	cfg.Memory = config.DefaultMemory()
	sys, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	fab, err := sys.AttachMemory(*cfg.Memory)
	if err != nil {
		tb.Fatal(err)
	}
	nodes := make([]noc.NodeID, cfg.Topology.Nodes())
	array := make([]byte, len(nodes)*msiSlicePitch)
	for c := range nodes {
		nodes[c] = noc.NodeID(c)
		for j := 0; j < msiSliceWords; j++ {
			binary.LittleEndian.PutUint32(array[c*msiSlicePitch+4*j:], uint32(c<<16|j))
		}
	}
	fab.Preload(msiArrayBase, array)
	return sys, sys.AttachMIPSShared(nodes, img, fab, *cfg.Memory), fab
}

// stepTiles advances every tile through one cycle the way the engine's
// single worker does: all transfers, then all commits.
func stepTiles(tiles []*Tile, cycle uint64) {
	for _, t := range tiles {
		t.PhaseTransfer(cycle)
	}
	for _, t := range tiles {
		t.PhaseCommit(cycle)
	}
}

// TestMSIMachineSteadyStateAllocs is the core and memory layers'
// counterpart of TestRouterSteadyStateAllocFree: with every core, L1,
// directory slice and the controller busy, a simulated cycle of the whole
// 16-tile machine allocates next to nothing. The pending access lives in
// the L1, inboxes are double-buffered, fills land in the victim's way, and
// messages with their line payloads come from and return to per-tile free
// lists. Before that it was 4 objects per cycle: the pending record of
// every access, an inbox regrown from nil every tick, every message, every
// line copy, a sharer map and a sort per GetM.
//
// What is left — 0.14 objects per cycle when this was written, exactly
// repeatable because the simulation is — is the protocol's net message
// flow between tiles: a free list never crosses tiles, a write-back ends
// at the controller's tile and invalidation acknowledgements at the
// requester's, so tiles that consume more than they send drop the surplus
// (the lists are bounded) while the directory slices that fan out
// invalidations and answer forwards allocate. The gate sits between that
// and the smallest thing it must catch (an inbox regrown per tick was 0.6).
func TestMSIMachineSteadyStateAllocs(t *testing.T) {
	sys, cores, fab := buildMSIMachine(t)
	sys.Run(50_000)
	cycle := sys.Clock()
	tiles := sys.Tiles()
	before := make([]uint64, len(cores))
	for i, c := range cores {
		before[i] = c.Instret
	}
	const cycles = 20_000
	perCycle := testing.AllocsPerRun(1, func() {
		for i := 0; i < cycles; i++ {
			stepTiles(tiles, cycle)
			cycle++
		}
	}) / cycles
	t.Logf("%.3f allocations per simulated 16-tile cycle", perCycle)
	if perCycle > 0.4 {
		t.Fatalf("%.3f allocations per simulated 16-tile cycle in steady state, want <= 0.4", perCycle)
	}
	for i, c := range cores {
		if c.Instret == before[i] {
			t.Fatalf("core %d retired nothing: the guard measured an idle machine", i)
		}
	}
	// Determinism of what was measured: every slice word is its preloaded
	// value plus a multiple of the owner's increment.
	array := fab.ReadBack(msiArrayBase, len(cores)*msiSlicePitch)
	for c := range cores {
		for j := 0; j < msiSliceWords; j++ {
			got := binary.LittleEndian.Uint32(array[c*msiSlicePitch+4*j:])
			if delta := got - uint32(c<<16|j); delta%uint32(c+1) != 0 {
				t.Fatalf("core %d word %d: %#x is not the preloaded value plus k*%d", c, j, got, c+1)
			}
		}
	}
}

// BenchmarkMSIMachineCycle is the whole MSI machine under the profiler:
// one b.N is one simulated cycle of all 16 tiles after a 50 000-cycle
// warm-up (`make profile-msi`).
func BenchmarkMSIMachineCycle(b *testing.B) {
	m := warm(b, func() *warmMachine {
		sys, _, _ := buildMSIMachine(b)
		sys.Run(50_000)
		return &warmMachine{sys: sys, cycle: sys.Clock()}
	})
	tiles := m.sys.Tiles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepTiles(tiles, m.cycle)
		m.cycle++
	}
}
