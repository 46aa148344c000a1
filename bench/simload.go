package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/obs"
	"hornet/internal/stats"
)

// fixedChunks is the part of every sim workload's timed region that is
// the same on every commit and host: the digest, the exact counts and
// peak RSS are read when it completes. Chunks after it only fill the
// requested measuring time and feed the rate median.
const fixedChunks = 20

// simSpec is one simulation workload: its machine and how its simulated
// time is cut up. Cycle counts are simulated time; nothing here depends on
// the host.
type simSpec struct {
	name    string
	warmup  uint64 // untimed cycles before the timed region
	chunk   uint64 // simulated cycles per timed System.Run call
	config  func(seed uint64) config.Config
	stencil bool // MIPS cores on the generated kernel instead of the config's traffic
}

var simSpecs = []simSpec{
	{name: "mesh8-serial", warmup: 20_000, chunk: 1_000, config: func(seed uint64) config.Config {
		return meshConfig(8, config.PatternUniform, 0.05, 1, seed)
	}},
	{name: "mesh32-par", warmup: 1_000, chunk: 200, config: func(seed uint64) config.Config {
		return meshConfig(32, config.PatternShuffle, 0.02, parWorkers(), seed)
	}},
	{name: "mips-msi", warmup: 50_000, chunk: 10_000, config: mipsConfig, stencil: true},
}

// build wires the workload's machine and attaches its frontend.
func (spec *simSpec) build(seed uint64) (*simInstance, error) {
	if spec.stencil {
		return buildStencil(spec.config(seed), newStencil(seed, stencilEndless))
	}
	return buildMesh(spec.config(seed))
}

// simInstance is one built machine plus what the checks read back.
type simInstance struct {
	sys    *core.System
	cores  []*mips.Core
	st     *stencil
	shared func() []byte // the stencil's shared array as the home stores hold it
}

func simSpecByName(name string) *simSpec {
	for i := range simSpecs {
		if simSpecs[i].name == name {
			return &simSpecs[i]
		}
	}
	return nil
}

func buildMesh(cfg config.Config) (*simInstance, error) {
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.AttachSyntheticTraffic(); err != nil {
		return nil, err
	}
	return &simInstance{sys: sys}, nil
}

func buildStencil(cfg config.Config, st stencil) (*simInstance, error) {
	img, err := mips.Assemble(st.source())
	if err != nil {
		return nil, err
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	fab, err := sys.AttachMemory(*cfg.Memory)
	if err != nil {
		return nil, err
	}
	shared := st.image()
	fab.Preload(st.Base, shared)
	nodes := make([]noc.NodeID, st.Cores)
	for i := range nodes {
		nodes[i] = noc.NodeID(i)
	}
	cores := sys.AttachMIPSShared(nodes, img, fab, *cfg.Memory)
	return &simInstance{sys: sys, cores: cores, st: &st,
		shared: func() []byte { return fab.ReadBack(st.Base, len(shared)) }}, nil
}

// instret sums retired instructions over the cores.
func (in *simInstance) instret() (n uint64) {
	for _, c := range in.cores {
		n += c.Instret
	}
	return n
}

// digest hashes every simulated statistic the run produced: the
// aggregate summary (counts, latencies, histogram, per-flow records),
// the clock the caller reached, and each core's counters, console and
// the shared array. Host time never enters it, so it must repeat
// bit-for-bit on any host at any speed.
func (in *simInstance) digest(clock uint64) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(in.sys.Summary()); err != nil {
		panic(err) // Summary holds only finite numbers and integer-keyed maps
	}
	fmt.Fprintf(h, "clock=%d\n", clock)
	for i, c := range in.cores {
		fmt.Fprintf(h, "core %d instret=%d stall=%d console=%q\n", i, c.Instret, c.StallCycles, c.Console())
	}
	if in.shared != nil {
		h.Write(in.shared())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// check runs the conditions that hold for any seed at any cycle.
func (in *simInstance) check(r *Report) {
	s := in.sys.Summary()
	r.check("flit-conservation", s.FlitsInjected-s.FlitsDelivered == uint64(in.sys.InFlight()),
		fmt.Sprintf("injected %d - delivered %d vs %d in flight", s.FlitsInjected, s.FlitsDelivered, in.sys.InFlight()))
	if in.st != nil {
		done := make([]uint32, len(in.cores))
		for i, c := range in.cores {
			done[i] = c.Regs[regIters]
		}
		err := in.st.checkSlices(in.shared(), done)
		r.check("stencil-closed-form", err == nil, fmt.Sprint(err))
	}
}

// runChunk is one timed operation: a System.Run of a fixed simulated
// span, timed from outside. A panic on this goroutine or a short run is
// a failed operation; the caller keeps going.
func runChunk(sys *core.System, cycles uint64) (d time.Duration, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(logw, "bench: chunk panicked: %v\n", p)
			ok = false
		}
	}()
	start := time.Now()
	res := sys.Run(cycles)
	d = time.Since(start)
	return d, res.Err == nil && res.Cycles == cycles
}

// runSim executes one sim workload in this process and fills the report.
func runSim(spec *simSpec, o childOpts, r *Report) error {
	warmup, chunk := max(spec.warmup/uint64(o.Scale), 1), max(spec.chunk/uint64(o.Scale), 1)
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}

	// Set-up: everything between process start and the first timed cycle.
	setup := tr.begin("setup", -1, 0, "")
	var inst *simInstance
	var err error
	buildDur := tr.time("core.build", setup, func() { inst, err = spec.build(o.Seed) })
	if err != nil {
		return err
	}
	tr.time("warmup", setup, func() { inst.sys.Run(warmup) })
	tr.end(setup, nil)
	r.EndToEnd["setup_s"] = Metric{Value: time.Since(procStart).Seconds(), Unit: "s"}
	if o.SetupOnly {
		return nil
	}

	tiles := float64(len(inst.sys.Tiles()))
	budget := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		budget /= 2 // the traced run also pays for the layer measurements below
	}
	probe := obs.NewSimProbe()
	var plain, probed, instrRates []float64 // per-chunk rates
	var ms0, ms1 runtime.MemStats
	var gc0, gc1 [2]float64
	var fixed fixedPoint
	transits0 := inst.sys.Summary().LinkTransits
	if o.Trace {
		runtime.ReadMemStats(&ms0)
		gc0 = gcCPU()
	}
	timed := tr.begin("timed", -1, 0, "")
	start := time.Now()
	for i := 0; i < fixedChunks || time.Since(start) < budget; i++ {
		// The traced run attaches the engine probe on every other chunk,
		// so one run yields both rates and their ratio is the probe's cost.
		withProbe := o.Trace && i%2 == 1
		if withProbe {
			inst.sys.SetProbe(probe)
		}
		before := inst.instret()
		id := tr.begin("sim.run", timed, 0, "")
		d, ok := runChunk(inst.sys, chunk)
		tr.end(id, map[string]any{"probe": withProbe})
		inst.sys.SetProbe(nil)
		r.Attempted++
		switch rate := float64(chunk) * tiles / d.Seconds(); {
		case !ok:
			r.Failed++
		case withProbe:
			probed = append(probed, rate)
		default:
			plain = append(plain, rate)
		}
		instrRates = append(instrRates, float64(inst.instret()-before)/d.Seconds())
		if i < fixedChunks {
			fixed.wall += d
		}
		if i == fixedChunks-1 {
			r.EndToEnd["peak_rss_mb"] = Metric{Value: peakRSSMB(), Unit: "MB"}
			r.Digest = inst.digest(inst.sys.Clock())
			fixed.summary, fixed.instret, fixed.clock = inst.sys.Summary(), inst.instret(), inst.sys.Clock()
			for _, c := range inst.cores {
				fixed.stall += c.StallCycles
			}
			if o.Trace {
				runtime.ReadMemStats(&ms1)
				gc1 = gcCPU()
			}
		}
	}
	tr.end(timed, nil)
	r.EndToEnd["tile_cycles_per_s"] = summarize(append(plain, probed...), "1/s")
	if len(inst.cores) > 0 {
		r.EndToEnd["instr_per_s"] = summarize(instrRates, "1/s")
	}
	inst.check(r)
	if !o.Trace {
		return nil
	}

	fixedTileCycles := float64(fixedChunks) * float64(chunk) * tiles
	L := r.PerLayer
	L["core.build_ms"] = Metric{Value: buildDur.Seconds() * 1e3, Unit: "ms"}
	L["core.allocs_per_tile_cycle"] = Metric{Value: float64(ms1.Mallocs-ms0.Mallocs) / fixedTileCycles, Unit: "count"}
	L["core.alloc_bytes_per_tile_cycle"] = Metric{Value: float64(ms1.TotalAlloc-ms0.TotalAlloc) / fixedTileCycles, Unit: "B"}
	L["core.gc_cpu_share"] = Metric{Value: (gc1[0] - gc0[0]) / (gc1[1] - gc0[1]), Unit: "share"}
	L["core.heap_mb_end"] = Metric{Value: float64(ms1.HeapInuse) / (1 << 20), Unit: "MB"}
	L["trace.rate_ratio"] = Metric{Value: median(probed) / median(plain), Unit: "ratio"}
	ps := probe.Snapshot()
	if wait, busy := ps.BarrierWallMS(), ps.ComputeWallMS(); inst.sys.Workers() > 1 && wait+busy > 0 {
		L["sim.barrier_wait_share"] = Metric{Value: wait / (wait + busy), Unit: "share"}
		lo, hi := ps.Partitions[0].ComputeMS, ps.Partitions[0].ComputeMS
		for _, p := range ps.Partitions {
			lo, hi = min(lo, p.ComputeMS), max(hi, p.ComputeMS)
		}
		L["sim.partition_imbalance"] = Metric{Value: (hi - lo) / hi, Unit: "share"}
	}
	s := fixed.summary
	L["noc.host_ns_per_link_transit"] = Metric{Value: float64(fixed.wall.Nanoseconds()) / float64(s.LinkTransits-transits0), Unit: "ns"}
	L["noc.flits_delivered"] = Metric{Value: float64(s.FlitsDelivered), Unit: "count"}
	L["noc.avg_packet_latency_cycles"] = Metric{Value: s.AvgPacketLatency, Unit: "cycles"}
	L["noc.buf_reads"] = Metric{Value: float64(s.BufReads), Unit: "count"}
	L["noc.arb_events"] = Metric{Value: float64(s.ArbEvents), Unit: "count"}
	L["noc.link_transits"] = Metric{Value: float64(s.LinkTransits), Unit: "count"}

	engineNS := 1e9 / median(plain) // host ns per tile-cycle under the engine
	build := func() (*simInstance, error) { return spec.build(o.Seed) }
	if err := layerHandLoop(build, tr, r, fixed, warmup, chunk, engineNS); err != nil {
		return err
	}
	if err := layerIdle(spec.config(o.Seed), tr, r, chunk); err != nil {
		return err
	}
	layerRouting(inst, tr, r, fixed)
	layerSync(tr, r)
	if err := layerSnapshot(build, inst, tr, r); err != nil {
		return err
	}
	if inst.st != nil {
		L["mips.instr_per_s"] = summarize(instrRates, "1/s")
		L["mips.instret"] = Metric{Value: float64(fixed.instret), Unit: "count"}
		L["mips.stall_cycles"] = Metric{Value: float64(fixed.stall), Unit: "count"}
		L["mips.ipc"] = Metric{Value: float64(fixed.instret) / (float64(len(inst.cores)) * float64(fixed.clock)), Unit: "1/cycle"}
		if err := layerMIPS(*inst.st, tr, r); err != nil {
			return err
		}
		layerMem(*inst.st, tr, r)
	}
	return writeTrace(tr, o, r)
}

// fixedPoint is the simulated state when the fixed part of the timed
// region completes: identical for a given seed on every host.
type fixedPoint struct {
	summary stats.Summary
	instret uint64
	stall   uint64
	clock   uint64
	wall    time.Duration // host time of the fixed chunks
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}
