package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/mem"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/routing"
	"hornet/internal/sim"
)

// Per-layer measurements of the traced run. Each one calls a layer's
// public functions from outside and times the calls; none of them adds a
// counter or a span inside internal/.

// sink keeps measured calls from being optimized away.
var sink int

// handStep advances every tile of sys through n cycles starting at
// *cycle, exactly as the engine's single worker would — all transfers,
// then all commits — and returns the host time of each phase.
func handStep(tiles []*core.Tile, cycle *uint64, n uint64) (transfer, commit time.Duration) {
	for end := *cycle + n; *cycle < end; *cycle++ {
		t0 := time.Now()
		for _, t := range tiles {
			t.PhaseTransfer(*cycle)
		}
		t1 := time.Now()
		for _, t := range tiles {
			t.PhaseCommit(*cycle)
		}
		transfer += t1.Sub(t0)
		commit += time.Since(t1)
	}
	return transfer, commit
}

// layerHandLoop steps a second, identical machine through the same
// cycles with the benchmark's own loop instead of the engine. Its
// statistics must equal the engine run's — that is what makes the loop a
// faithful stand-in — and then the two phases' host time is the tile
// pipeline's cost free of engine dispatch and barriers. With attached
// cores and caches the transfer phase includes their ticks.
func layerHandLoop(build func() (*simInstance, error), tr *tracer, r *Report, fixed fixedPoint, warmup, chunk uint64, engineNS float64) error {
	inst, err := build()
	if err != nil {
		return err
	}
	tiles := inst.sys.Tiles()
	perChunk := float64(chunk) * float64(len(tiles))
	root := tr.begin("handloop", -1, 0, "")
	var cycle uint64
	handStep(tiles, &cycle, warmup)
	var transfer, commit, total []float64
	for i := 0; i < fixedChunks; i++ {
		id := tr.begin("handloop.chunk", root, 0, "")
		tns, cns := handStep(tiles, &cycle, chunk)
		tr.end(id, map[string]any{"noc.transfer_ns": tns.Nanoseconds(), "noc.commit_ns": cns.Nanoseconds()})
		transfer = append(transfer, float64(tns.Nanoseconds())/perChunk)
		commit = append(commit, float64(cns.Nanoseconds())/perChunk)
		total = append(total, float64((tns+cns).Nanoseconds())/perChunk)
	}
	tr.end(root, nil)
	r.check("handloop-faithful",
		reflect.DeepEqual(inst.sys.Summary(), fixed.summary) && inst.instret() == fixed.instret,
		"hand-stepped machine's statistics differ from the engine run's at the same cycle")
	r.PerLayer["noc.transfer_ns_per_tile_cycle"] = summarize(transfer, "ns")
	r.PerLayer["noc.commit_ns_per_tile_cycle"] = summarize(commit, "ns")
	if inst.sys.Workers() == 1 {
		r.PerLayer["sim.engine_overhead_share"] = Metric{Value: 1 - median(total)/engineNS, Unit: "share"}
	}
	return nil
}

// layerIdle steps the same mesh with nothing attached: the cost of a
// tile-cycle in which no flit moves, the floor every step pays.
func layerIdle(cfg config.Config, tr *tracer, r *Report, chunk uint64) error {
	cfg.Traffic = nil
	sys, err := core.New(cfg)
	if err != nil {
		return err
	}
	tiles := sys.Tiles()
	var cycle uint64
	n := 5 * chunk
	d := tr.time("noc.idle", -1, func() { handStep(tiles, &cycle, n) })
	r.PerLayer["noc.idle_ns_per_tile_cycle"] = Metric{
		Value: float64(d.Nanoseconds()) / (float64(n) * float64(len(tiles))), Unit: "ns"}
	return nil
}

// layerRouting times table lookups over the flows the workload actually
// delivered: the first touch of each flow materializes its routes (the
// set-up and memory cost of a large mesh), repeats are the hot-path
// lookup every head flit pays.
func layerRouting(inst *simInstance, tr *tracer, r *Report, fixed fixedPoint) {
	flows := make([]noc.FlowID, 0, len(fixed.summary.Flows))
	for id := range fixed.summary.Flows {
		flows = append(flows, noc.FlowID(id))
	}
	if len(flows) == 0 {
		return
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	tables := routing.NewTables(inst.sys.Algorithm())
	pass := func() {
		for _, f := range flows {
			sink += len(tables.Lookup(f.Src(), f.Src(), f))
		}
	}
	cold := tr.time("routing.lookup.cold", -1, pass)
	passes := 200_000/len(flows) + 1
	warm := tr.time("routing.lookup.warm", -1, func() {
		for i := 0; i < passes; i++ {
			pass()
		}
	})
	r.PerLayer["routing.lookup_ns_cold"] = Metric{Value: float64(cold.Nanoseconds()) / float64(len(flows)), Unit: "ns", N: len(flows)}
	r.PerLayer["routing.lookup_ns_warm"] = Metric{Value: float64(warm.Nanoseconds()) / float64(passes*len(flows)), Unit: "ns", N: passes * len(flows)}
}

// nopTile does nothing: an engine over nopTiles costs only dispatch and
// barriers.
type nopTile struct{}

func (nopTile) PhaseTransfer(uint64)        {}
func (nopTile) PhaseCommit(uint64)          {}
func (nopTile) NextEvent(now uint64) uint64 { return now + 1 }

// layerSync measures the engine's fixed cost per simulated cycle with one
// worker and with the parallel workloads' worker count.
func layerSync(tr *tracer, r *Report) {
	const cycles = 20_000
	tiles := make([]sim.Tile, 64)
	for i := range tiles {
		tiles[i] = nopTile{}
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"sim.sync_ns_per_cycle.w1", 1}, {"sim.sync_ns_per_cycle.w2", parWorkers()}} {
		eng := sim.NewEngine(tiles, w.workers, 1, false, nil)
		d := tr.time(w.name, -1, func() { eng.Run(0, cycles, nil) })
		r.PerLayer[w.name] = Metric{Value: float64(d.Nanoseconds()) / cycles, Unit: "ns", N: cycles}
	}
}

// parWorkers is the worker count of the parallel workload: two, unless
// the host has a single CPU.
func parWorkers() int { return min(runtime.NumCPU(), 2) }

// layerSnapshot encodes the machine as it stands at the end of the timed
// region and restores the blob into freshly built machines. A restored
// machine must carry the same statistics as the one that was saved.
func layerSnapshot(build func() (*simInstance, error), inst *simInstance, tr *tracer, r *Report) error {
	const reps = 3
	var blob []byte
	var err error
	var enc, dec []float64
	for i := 0; i < reps && err == nil; i++ {
		d := tr.time("snapshot.encode", -1, func() { blob, err = inst.sys.SnapshotBytes() })
		enc = append(enc, float64(len(blob))/(1<<20)/d.Seconds())
	}
	if err != nil {
		return fmt.Errorf("snapshot encode: %w", err)
	}
	want, same := inst.digest(inst.sys.Clock()), true
	for i := 0; i < reps; i++ {
		fresh, err := build()
		if err != nil {
			return err
		}
		d := tr.time("snapshot.restore", -1, func() { err = fresh.sys.RestoreBytes(blob) })
		if err != nil {
			return fmt.Errorf("snapshot restore: %w", err)
		}
		dec = append(dec, float64(len(blob))/(1<<20)/d.Seconds())
		same = same && fresh.digest(fresh.sys.Clock()) == want
	}
	r.check("snapshot-roundtrip", same, "a restored machine's digest differs from the saved one's")
	r.PerLayer["snapshot.bytes"] = Metric{Value: float64(len(blob)), Unit: "B"}
	r.PerLayer["snapshot.encode_mb_per_s"] = summarize(enc, "MB/s")
	r.PerLayer["snapshot.restore_mb_per_s"] = summarize(dec, "MB/s")
	return nil
}

// layerMIPS runs the kernel on one standalone core over private memory:
// no network, no caches, every access one cycle. What is left is the
// interpreter's own speed.
func layerMIPS(st stencil, tr *tracer, r *Report) error {
	img, err := mips.Assemble(st.source())
	if err != nil {
		return err
	}
	c := mips.NewCore(0, st.Cores, img, nil, nil)
	c.RAM().WriteBytes(st.Base, st.image())
	const ticks = 3_000_000
	d := tr.time("mips.isolated", -1, func() {
		for cycle := uint64(0); cycle < ticks; cycle++ {
			c.Tick(cycle)
		}
	})
	r.PerLayer["mips.instr_per_s_isolated"] = Metric{Value: float64(c.Instret) / d.Seconds(), Unit: "1/s", N: int(c.Instret)}
	return nil
}

// layerMem drives one L1, one directory slice and one memory controller
// with the kernel's address stream. They sit on a single-node address map
// behind the tile's own bridge, whose sends to its own node loop back
// without a packet, so no router runs and protocol hops cost no simulated
// time. One cache stands in for all sixteen (their streams are replayed
// in turn), so there are no coherence invalidations here; in-system L1
// counters are not reachable from outside core.
func layerMem(st stencil, tr *tracer, r *Report) {
	mc := config.DefaultMemory()
	am := &mem.AddressMap{LineBytes: mc.LineBytes, Nodes: 1, Controllers: []noc.NodeID{0}}
	b := mem.NewBridge(0, nil)
	b.Dir = mem.NewDirectory(0, am, b)
	b.MC = mem.NewController(0, mc.MCLatencyCyc, mc.MCQueueDepth, b)
	b.L1 = mem.NewL1(0, am, mc.L1Sets, mc.L1Ways, mc.L1LatencyCyc, b)
	var cycle uint64
	access := func(write bool, addr uint32) {
		for done := false; !done; cycle++ {
			b.BeginCycle(cycle)
			b.Dir.Tick(cycle)
			b.MC.Tick(cycle)
			b.L1.Tick(cycle)
			_, done = b.L1.Access(cycle, write, addr, 4, 1)
		}
	}
	const rounds = 40
	stream := tr.time("mem.stream", -1, func() {
		for i := 0; i < rounds; i++ {
			for c := 0; c < st.Cores; c++ {
				st.accesses(c, access)
			}
		}
	})
	s := b.L1.Stats
	const hits = 500_000
	hit := tr.time("mem.l1_hit", -1, func() {
		for i := 0; i < hits; i++ {
			access(false, st.Ctr)
		}
	})
	hitNS := float64(hit.Nanoseconds()) / hits
	r.PerLayer["mem.l1_hit_ns"] = Metric{Value: hitNS, Unit: "ns", N: hits}
	r.PerLayer["mem.l1_hit_ratio"] = Metric{Value: float64(s.Hits) / float64(s.Hits+s.Misses), Unit: "share", N: int(s.Hits + s.Misses)}
	r.PerLayer["mem.miss_txn_ns"] = Metric{Value: (float64(stream.Nanoseconds()) - float64(s.Hits)*hitNS) / float64(s.Misses), Unit: "ns", N: int(s.Misses)}
}
