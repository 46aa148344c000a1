package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"hornet/internal/config"
	"hornet/internal/scenario"
	"hornet/internal/service"
	"hornet/internal/workloads"
)

// The input generator. Everything the simulator or the service receives
// is produced here from the benchmark seed; the program itself never sees
// the seed, only configs, MIPS source and submit requests. Seeds vary the
// inputs (RNG streams, data values, slice geometry inside a narrow band,
// request order) without changing what kind of load a workload is, so
// runs at different seeds measure the same thing.

// rng is splitmix64: tiny, and its output for a given seed can never
// change under us the way a library generator's could.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, b := range []byte(stream) {
		r.s = r.next() ^ uint64(b)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// meshConfig is the network-only machine of mesh8-serial and mesh32-par:
// cycle-accurate, fast-forward off, one synthetic pattern on every node.
// The seed becomes the engine seed, i.e. different injection and
// arbitration streams of the same offered load.
func meshConfig(width int, pattern string, rate float64, workers int, seed uint64) config.Config {
	cfg := config.Default() // width 32 makes it config.Default1024()
	cfg.Topology.Width, cfg.Topology.Height = width, width
	cfg.Traffic = []config.TrafficConfig{{Pattern: pattern, InjectionRate: rate}}
	cfg.Engine = config.EngineConfig{Workers: workers, SyncPeriod: 1, Seed: newRNG(seed, "engine").next()}
	return cfg
}

// stencil describes the generated ring-stencil kernel of mips-msi: core c
// owns a slice of Len words (Stride bytes apart) of one shared array,
// and every iteration reads both ring neighbours' slices and then adds
// c+1 to each word of its own. Neighbours' reads hit lines the owner just
// wrote (miss, forward, downgrade), the owner's rewrite upgrades lines
// its neighbours share (invalidations), and the words between line
// boundaries hit — all 16 cores stay busy, unlike the registry's only
// shared kernel, which keeps 2 of 16 working.
type stencil struct {
	Cores  int
	Len    int    // words per slice
	Stride int    // bytes between consecutive words of a slice
	Pitch  int    // bytes between slice bases
	Base   uint32 // shared-array base address
	Ctr    uint32 // per-core completed-iteration counters, one line each
	Iters  uint32 // iterations before the cores print and exit
	seed   uint64
}

// stencilEndless is an iteration count no run reaches: the benchmark
// samples the kernel mid-flight.
const stencilEndless = 1 << 30

func newStencil(seed uint64, iters uint32) stencil {
	r := newRNG(seed, "stencil")
	st := stencil{
		Cores:  16,
		Len:    44 + r.intn(8),
		Stride: 4, // 8 words per 32-byte line: one miss, seven hits
		Base:   0x0010_0000,
		Ctr:    0x0008_0000,
		Iters:  iters,
		seed:   seed,
	}
	// Slices start on line boundaries one spare line apart, so no line is
	// shared by two owners.
	st.Pitch = (st.Len*st.Stride+31)/32*32 + 32
	return st
}

func (st stencil) wordAddr(c, j int) uint32 {
	return st.Base + uint32(c*st.Pitch+j*st.Stride)
}

// image returns the shared-array bytes to preload at Base: seed-chosen
// values in the slice words, zero between them.
func (st stencil) image() []byte {
	r := newRNG(st.seed, "image")
	img := make([]byte, st.Cores*st.Pitch)
	for c := 0; c < st.Cores; c++ {
		for j := 0; j < st.Len; j++ {
			binary.LittleEndian.PutUint32(img[c*st.Pitch+j*st.Stride:], uint32(r.next()))
		}
	}
	return img
}

// checkSlices is the closed form that holds for any seed at any cycle:
// word j of core c's slice, as the home store holds it, is its preloaded
// value plus k*(c+1) for some k no larger than the iterations the core
// has started (done[c]+1). The home copy may trail the owner's cache, so
// k is bounded, not pinned; once every core has exited it is exact only
// for lines that were written back, hence the same bound.
func (st stencil) checkSlices(shared []byte, done []uint32) error {
	preloaded := st.image()
	for c := 0; c < st.Cores; c++ {
		for j := 0; j < st.Len; j++ {
			at := c*st.Pitch + j*st.Stride
			got, was := binary.LittleEndian.Uint32(shared[at:]), binary.LittleEndian.Uint32(preloaded[at:])
			if delta := got - was; delta%uint32(c+1) != 0 || delta/uint32(c+1) > done[c]+1 {
				return fmt.Errorf("core %d word %d: %#x is not the preloaded %#x plus k*%d with k <= %d",
					c, j, got, was, c+1, done[c]+1)
			}
		}
	}
	return nil
}

// accesses is core c's data-address stream for one iteration, in program
// order: the neighbour reads, the own-slice read-modify-writes and the
// counter store. The standalone cache measurement replays it.
func (st stencil) accesses(c int, visit func(write bool, addr uint32)) {
	left, right := (c+st.Cores-1)%st.Cores, (c+1)%st.Cores
	for j := 0; j < st.Len; j++ {
		visit(false, st.wordAddr(left, j))
		visit(false, st.wordAddr(right, j))
	}
	for j := 0; j < st.Len; j++ {
		visit(false, st.wordAddr(c, j))
		visit(true, st.wordAddr(c, j))
	}
	visit(true, st.Ctr+uint32(c*32))
}

// Registers the checks read back: $s6 the running checksum, $s7 the
// completed-iteration count.
const (
	regChecksum = 22
	regIters    = 23
)

// source renders the kernel as MIPS assembly with the geometry baked in.
func (st stencil) source() string {
	return fmt.Sprintf(`# Ring stencil: %d-word slices, stride %d, pitch %d, %d iterations.
	.text
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
	li   $t2, %d         # pitch
	li   $t4, %d         # array base
	mul  $t3, $s0, $t2
	addu $s2, $t3, $t4   # own slice
	mul  $t3, $t0, $t2
	addu $s3, $t3, $t4   # left slice
	mul  $t3, $t1, $t2
	addu $s4, $t3, $t4   # right slice
	addiu $t8, $s0, 1    # own increment
	li   $s5, %d         # iterations
	li   $s6, 0          # checksum of everything read
	li   $s7, 0          # completed iterations
	sll  $t9, $s0, 5
	li   $t4, %d
	addu $t9, $t9, $t4   # own counter line
iter:
	move $t0, $s3
	move $t1, $s4
	li   $t2, %d
rd:
	lw   $t3, 0($t0)
	lw   $t4, 0($t1)
	addu $s6, $s6, $t3
	xor  $s6, $s6, $t4
	sll  $t5, $s6, 5     # register-only mixing: compute between the loads
	srl  $t6, $s6, 27
	or   $t5, $t5, $t6
	addu $s6, $t5, $t3
	sll  $t5, $s6, 13
	srl  $t6, $s6, 19
	or   $t5, $t5, $t6
	xor  $s6, $t5, $t4
	sll  $t5, $s6, 7
	srl  $t6, $s6, 25
	or   $t5, $t5, $t6
	addu $s6, $t5, $t8
	addiu $t0, $t0, %d
	addiu $t1, $t1, %d
	addiu $t2, $t2, -1
	bgtz $t2, rd
	move $t0, $s2
	li   $t2, %d
wr:
	lw   $t3, 0($t0)
	addu $t3, $t3, $t8
	sw   $t3, 0($t0)
	addiu $t0, $t0, %d
	addiu $t2, $t2, -1
	bgtz $t2, wr
	addiu $s7, $s7, 1
	sw   $s7, 0($t9)
	blt  $s7, $s5, iter
	move $a0, $s6
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`, st.Len, st.Stride, st.Pitch, st.Iters,
		st.Pitch, st.Base, st.Iters, st.Ctr,
		st.Len, st.Stride, st.Stride, st.Len, st.Stride)
}

// mipsConfig is the 4x4 MSI machine the stencil runs on.
func mipsConfig(seed uint64) config.Config {
	cfg := meshConfig(4, config.PatternUniform, 0, 1, seed)
	cfg.Traffic = nil
	cfg.Memory = config.DefaultMemory()
	return cfg
}

// Serve-mix job shapes. A cold traffic job is a 4x4 mesh under uniform
// load for serveWarmup+serveAnalyzed cycles; with the daemon checkpointing
// every serveCheckpointEvery cycles it autosaves exactly once, in its
// measured window.
const (
	serveWarmup          = 1000
	serveAnalyzed        = 2000
	serveCheckpointEvery = 1500
	servePingPongRounds  = 40
)

// serveOp is one step of a client's closed loop: submit Req and wait for
// its document. Repeat >= 0 marks a resubmission of the client's earlier
// op with that index (a cache hit).
type serveOp struct {
	Req    service.SubmitRequest
	Repeat int
	// Cycles is the simulated span a cold traffic job covers; ping-pong
	// jobs report theirs in the document.
	Cycles uint64
}

// serveOps generates one client's request sequence: half new content
// addresses (four in five a traffic run, one in five the ping-pong
// kernel), half repeats of something the same client already ran. Each
// new scenario carries a seed no other op of any client uses, which is
// what makes its content address new. The first op is always new, and the
// first serveWarmOps ops (the warm-up) are 20 new, 4 of them ping-pong, and
// 20 repeats whatever the seed.
func serveOps(seed uint64, client, n int) []serveOp {
	r := newRNG(seed, fmt.Sprintf("client/%d", client))
	ops := make([]serveOp, 0, n)
	var cold []int
	for i := 0; i < n; i++ {
		// The untimed warm-up prefix has the same composition at every seed
		// (new and repeat alternate, every fifth new one is ping-pong), so
		// setup_s does not move with the draw; the seed still picks its data.
		fixed := i < serveWarmOps
		repeat := len(cold) > 0 && r.intn(2) == 0
		if fixed {
			repeat = i%2 == 1
		}
		if repeat {
			prev := cold[r.intn(len(cold))]
			ops = append(ops, serveOp{Req: ops[prev].Req, Repeat: prev})
			continue
		}
		sc := scenario.Scenario{
			Version: scenario.Version,
			Name:    "serve-mix",
			Machine: scenario.Machine{Topology: config.TopologyConfig{Kind: config.TopoMesh, Width: 4, Height: 4}},
			// Unique per (benchmark seed, client, position); never 0.
			Run: &scenario.Plan{Seed: r.next()>>40<<24 | uint64(client)<<20 | uint64(i) | 1<<62},
		}
		op := serveOp{Repeat: -1}
		pingpong := r.intn(5) == 0
		if fixed {
			pingpong = len(cold)%5 == 4
		}
		if pingpong {
			sc.Workload = &scenario.Workload{Kernel: "pingpong",
				Params: workloads.Params{"rounds": servePingPongRounds}}
		} else {
			warm := serveWarmup
			sc.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform,
				InjectionRate: 0.04 + 0.01*float64(r.intn(3))}}
			sc.Run.WarmupCycles, sc.Run.AnalyzedCycles = &warm, serveAnalyzed
			op.Cycles = serveWarmup + serveAnalyzed
		}
		doc, err := json.Marshal(sc)
		if err != nil {
			panic(err) // a struct of plain fields always encodes
		}
		op.Req = service.SubmitRequest{Scenario: doc}
		cold = append(cold, i)
		ops = append(ops, op)
	}
	return ops
}
