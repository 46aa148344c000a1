// Package experiments reproduces every table and figure in the paper's
// evaluation (§IV): each entry of the registry (Figures) runs the
// workloads with the paper's parameters (scaled to tractable sizes by
// default, full scale on request) and returns the same series the paper
// plots. cmd/hornet-exp and the job daemon run them through the registry,
// bench_test.go times them the same way, and the package's tests assert
// the qualitative shapes the paper reports.
//
// Every figure expresses its runs as sweep items (internal/sweep) keyed
// by a stable configuration string, so independent simulations execute
// concurrently on a bounded worker pool with deterministic per-run seeds.
// The parallelization figures (Fig6a/6b/7) measure wall-clock time and
// therefore run their items serially regardless of Options.Parallel.
package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/obs"
	"hornet/internal/splash"
	"hornet/internal/stats"
	"hornet/internal/sweep"
	"hornet/internal/trace"
	"hornet/internal/workloads"
)

// Options scales the experiments. The zero value gives CI-friendly
// defaults; Full restores paper-scale parameters (1024-core meshes,
// 200k/2M warmup/measurement windows); Tiny shrinks further for
// `go test -short` smoke coverage.
type Options struct {
	Full bool
	Tiny bool // shrunk shapes for -short CI runs; ignored when Full is set
	Seed uint64
	// Workers lists the worker counts swept by the parallelization figures.
	Workers []int
	// Parallel is the number of sweep runs in flight at once (0 means
	// GOMAXPROCS). Timing figures always execute serially.
	Parallel int
	// Budget caps total CPU slots across concurrent runs (0 means
	// max(Parallel, GOMAXPROCS)); a run using W engine workers holds W slots.
	// Ignored when Pool is set.
	Budget int
	// Pool, if non-nil, is an externally owned CPU-slot pool shared with
	// other concurrent work (e.g. other jobs in hornet-serve); every sweep
	// run acquires its engine workers from it.
	Pool *sweep.Budget
	// Context, if non-nil, cancels in-progress sweeps: dispatch stops,
	// in-flight runs drain, and Figure.Document returns the completed
	// prefix along with the context's error. Nil means Background.
	Context context.Context
	// Progress, if non-nil, is called after each sweep run completes.
	Progress func(done, total int, key string)
	// Warmups, if non-nil, is the warmup snapshot cache shared with other
	// work (other figures, other jobs in hornet-serve, or a -checkpoint-dir
	// disk tier): figures whose sweep items share a warmup prefix simulate
	// the prefix once and fork the rest from the cached snapshot. Nil means
	// a private in-memory cache per figure invocation (still warmup-once
	// within the figure). Like Parallel, this must not change a single
	// output byte — the snapshot round-trip contract guarantees it — so it
	// is excluded from config hashes.
	Warmups *sweep.SnapshotCache
	// NoWarmupReuse disables warmup snapshot reuse entirely (every item
	// re-simulates its warmup). Results are byte-identical either way;
	// the flag exists for benchmarking the reuse win and for debugging.
	NoWarmupReuse bool
	// Probe, if non-nil, is attached to every system the figure builds,
	// accumulating engine timing across sweep runs. Like Progress, it must
	// not change a single output byte, so it is excluded from config hashes.
	Probe *obs.SimProbe
}

// FullFromEnv reports whether HORNET_FULL requests paper-scale runs:
// any value except empty, "0" and "false" counts. cmd/hornet-exp and the
// benchmarks share this parse.
func FullFromEnv() bool {
	switch os.Getenv("HORNET_FULL") {
	case "", "0", "false":
		return false
	}
	return true
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 0x5EED0A11
	}
	if o.Full {
		o.Tiny = false
	}
	if len(o.Workers) == 0 {
		max := runtime.GOMAXPROCS(0) * 2
		if max < 2 {
			max = 2
		}
		if o.Tiny && max > 4 {
			max = 4
		}
		for w := 1; w <= max; w++ {
			o.Workers = append(o.Workers, w)
		}
	}
}

// pick selects the scale variant of a parameter.
func (o *Options) pick(tiny, std, full uint64) uint64 {
	if o.Full {
		return full
	}
	if o.Tiny {
		return tiny
	}
	return std
}

// meshSide returns the synthetic-workload mesh dimension.
func (o *Options) meshSide() int {
	return int(o.pick(8, 16, 32)) // full: 1024 cores, paper scale
}

func (o *Options) synthCycles() uint64 {
	return o.pick(5_000, 20_000, 2_000_000)
}

func (o *Options) warmup() uint64 {
	return o.pick(500, 2_000, 200_000)
}

// splashCycles is the trace window for the SPLASH replay figures (8-11).
func (o *Options) splashCycles() uint64 {
	return o.pick(40_000, 120_000, 2_000_000)
}

// identity returns the fields that determine a figure's output — and
// nothing else: parallelism and callbacks must not change a single byte,
// so they are excluded from the config hash. The worker list only feeds
// Fig6a's sweep; hashing it elsewhere would make cache keys vary with
// the host's core count (fill defaults it from GOMAXPROCS).
func (o *Options) identity(includeWorkers bool) any {
	id := struct {
		Full    bool   `json:"full"`
		Tiny    bool   `json:"tiny"`
		Seed    uint64 `json:"seed"`
		Workers []int  `json:"workers,omitempty"`
	}{Full: o.Full, Tiny: o.Tiny, Seed: o.Seed}
	if includeWorkers {
		id.Workers = o.Workers
	}
	return id
}

// sweepConfig builds the engine configuration for this option set. Serial
// sweeps (wall-clock figures) force one run at a time.
func (o *Options) sweepConfig(serial bool) sweep.Config {
	workers := o.Parallel
	if serial {
		workers = 1
	}
	cfg := sweep.Config{Workers: workers, Budget: o.Budget, Pool: o.Pool, Seed: o.Seed}
	if o.Progress != nil {
		progress := o.Progress
		cfg.OnProgress = func(done, total int, r sweep.Result) {
			progress(done, total, r.Key)
		}
	}
	return cfg
}

// canceledSweep carries the completed prefix of a sweep whose context was
// cancelled. runSweep panics with it — unwinding past the figure's
// post-processing, which cannot run on partial results — and
// Figure.Run/Document recover it into a partial result set.
type canceledSweep struct {
	results []sweep.Result
	err     error
}

// runSweep executes items through the sweep engine, panicking on the
// first failed run: the experiments API treats configuration errors as
// programming errors, as the pre-sweep code did. Cancellation via
// Options.Context panics with canceledSweep (recovered by the Figure
// entry points).
func runSweep(o Options, serial bool, items []sweep.Item) []sweep.Result {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	results := sweep.Run(ctx, items, o.sweepConfig(serial))
	if err := ctx.Err(); err != nil {
		panic(canceledSweep{results: results, err: err})
	}
	for _, r := range results {
		if r.Err != nil {
			panic(fmt.Sprintf("experiments: %v", r.Err))
		}
	}
	return results
}

// collect unwraps typed rows from sweep results.
func collect[T any](results []sweep.Result) []T {
	rows, err := sweep.Collect[T](results)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return rows
}

// finalize overwrites each result's value with the post-processed row at
// the same index, so emitted documents carry the figure's final series
// (speedups and accuracies included) rather than raw intermediates.
func finalize[T any](results []sweep.Result, rows []T) []sweep.Result {
	for i := range rows {
		results[i].Value = rows[i]
	}
	return results
}

// ---------------------------------------------------------------------------
// Fig 6a: parallelization speedup vs worker count, cycle-accurate vs
// 5-cycle loose synchronization, for synthetic SHUFFLE traffic and the
// BLACKSCHOLES kernel on the MIPS frontend.

// Fig6aRow is one point of the speedup plot.
type Fig6aRow struct {
	Workload string
	SyncMode string // "cycle-accurate" or "5-cycle"
	Workers  int
	Wall     time.Duration
	Speedup  float64 // vs the same workload/mode at 1 worker
}

// fig6a runs the speedup sweep. On hosts with few cores the wall-clock
// speedup saturates at the host parallelism — the paper's own point about
// die crossings applies at a smaller scale. The items execute serially
// (wall-clock is the measurement), one full workload/mode group at a time.
func fig6a(o Options) ([]Fig6aRow, []sweep.Result) {
	o.fill()
	modes := []struct {
		name   string
		period int
	}{{"cycle-accurate", 1}, {"5-cycle", 5}}
	var items []sweep.Item
	for _, workload := range []string{"shuffle", "blackscholes"} {
		for _, mode := range modes {
			for _, w := range o.Workers {
				items = append(items, sweep.Item{
					Key:    fmt.Sprintf("fig6a/%s/%s/w%d", workload, mode.name, w),
					Weight: w,
					Run: func(ctx sweep.Ctx) (any, error) {
						// All worker counts of a workload/mode group share one
						// seed: the speedup curve must time identical work,
						// and the engine is deterministic across workers.
						seed := sweep.PairSeed(o.Seed, "fig6a", workload, mode.name)
						var wall time.Duration
						if workload == "shuffle" {
							wall = runShuffleOnce(o, w, mode.period, seed)
						} else {
							wall = runBlackScholesOnce(o, w, mode.period, seed)
						}
						return Fig6aRow{Workload: workload, SyncMode: mode.name, Workers: w, Wall: wall}, nil
					},
				})
			}
		}
	}
	results := runSweep(o, true, items)
	rows := collect[Fig6aRow](results)
	// Speedup baseline: the first worker count of each workload/mode group.
	base := time.Duration(0)
	for i := range rows {
		if i%len(o.Workers) == 0 {
			base = rows[i].Wall
		}
		rows[i].Speedup = float64(base) / float64(rows[i].Wall)
	}
	return rows, finalize(results, rows)
}

func runShuffleOnce(o Options, workers, period int, seed uint64) time.Duration {
	cfg := config.Default()
	side := o.meshSide()
	cfg.Topology.Width, cfg.Topology.Height = side, side
	cfg.Engine.Workers = workers
	cfg.Engine.SyncPeriod = period
	cfg.Engine.Seed = seed
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternShuffle, InjectionRate: 0.02}}
	sys := o.system(cfg)
	must(sys.AttachSyntheticTraffic())
	res := sys.Run(o.synthCycles())
	return res.Wall
}

func runBlackScholesOnce(o Options, workers, period int, seed uint64) time.Duration {
	side, opts := 4, 64
	if o.Tiny {
		side, opts = 2, 16
	}
	if o.Full {
		side, opts = 32, 256
	}
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = side, side
	cfg.Engine.Workers = workers
	cfg.Engine.SyncPeriod = period
	cfg.Engine.Seed = seed
	img := mustImage(workloads.BlackScholesSource(opts, 16))
	sys := o.system(cfg)
	nodes := allNodes(side * side)
	cores := sys.AttachMIPS(nodes, img)
	res := sys.RunUntil(50_000_000, sys.CoresHalted(cores))
	return res.Wall
}

// ---------------------------------------------------------------------------
// Fig 6b: accuracy and speedup vs synchronization period (transpose).

// Fig6bRow is one synchronization-period point.
type Fig6bRow struct {
	Period      int
	Wall        time.Duration
	Speedup     float64 // vs cycle-accurate
	AvgLatency  float64
	AccuracyPct float64 // 100 - |lat - lat_ca| / lat_ca * 100
}

// fig6b sweeps the synchronization period on transpose traffic with four
// workers (the paper's "Transpose on 4 HT cores"). Items run serially:
// speedup is a wall-clock measurement.
func fig6b(o Options) ([]Fig6bRow, []sweep.Result) {
	o.fill()
	periods := []int{1, 5, 10, 50, 100, 500, 1000}
	if o.Tiny {
		periods = []int{1, 5, 10, 100}
	}
	items := make([]sweep.Item, len(periods))
	for i, p := range periods {
		items[i] = sweep.Item{
			Key:    fmt.Sprintf("fig6b/period%d", p),
			Weight: 4,
			Run: func(ctx sweep.Ctx) (any, error) {
				cfg := config.Default()
				cfg.Topology.Width, cfg.Topology.Height = 8, 8
				cfg.Engine.Workers = 4
				cfg.Engine.SyncPeriod = p
				// Every period replays the same traffic: the accuracy metric
				// compares loose synchronization against the cycle-accurate
				// reference on an identical workload.
				cfg.Engine.Seed = sweep.PairSeed(o.Seed, "fig6b")
				cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.05}}
				sys := o.system(cfg)
				must(sys.AttachSyntheticTraffic())
				sys.Run(o.warmup())
				sys.ResetStats()
				res := sys.Run(o.synthCycles())
				return Fig6bRow{Period: p, Wall: res.Wall, AvgLatency: sys.Summary().AvgPacketLatency}, nil
			},
		}
	}
	results := runSweep(o, true, items)
	rows := collect[Fig6bRow](results)
	refWall, refLat := rows[0].Wall, rows[0].AvgLatency
	for i := range rows {
		rows[i].Speedup = float64(refWall) / float64(rows[i].Wall)
		rows[i].AccuracyPct = stats.Accuracy(rows[i].AvgLatency, refLat)
	}
	rows[0].AccuracyPct = 100
	return rows, finalize(results, rows)
}

// ---------------------------------------------------------------------------
// Fig 7: fast-forwarding benefit on low-traffic workloads.

// Fig7Row is one fast-forward measurement.
type Fig7Row struct {
	Workload string
	FF       bool
	Workers  int
	Wall     time.Duration
	Skipped  uint64
	Speedup  float64 // vs no-FF at the same worker count
}

// fig7 compares fast-forward on/off for bursty low-rate bit-complement
// (big wins: the network fully drains between coordinated bursts) and the
// H.264-decoder profile (little win: evenly spread packets keep the
// network from draining). Serial: the FF benefit is a wall-clock ratio.
func fig7(o Options) ([]Fig7Row, []sweep.Result) {
	o.fill()
	tcs := []config.TrafficConfig{
		{Pattern: config.PatternBitComplement, InjectionRate: 0.02, BurstLen: 200, BurstGap: 4000},
		{Pattern: config.PatternH264, InjectionRate: 0.002},
	}
	workerSet := []int{1, 2, 4}
	if o.Tiny {
		workerSet = []int{1, 2}
	}
	var items []sweep.Item
	for _, tc := range tcs {
		for _, w := range workerSet {
			for _, ff := range []bool{false, true} {
				items = append(items, sweep.Item{
					Key:    fmt.Sprintf("fig7/%s/w%d/ff=%v", tc.Pattern, w, ff),
					Weight: w,
					Run: func(ctx sweep.Ctx) (any, error) {
						cfg := config.Default()
						cfg.Topology.Width, cfg.Topology.Height = 8, 8
						cfg.Engine.Workers = w
						cfg.Engine.FastForward = ff
						cfg.Engine.Seed = sweep.PairSeed(o.Seed, "fig7", tc.Pattern, w)
						cfg.Traffic = []config.TrafficConfig{tc}
						sys := o.system(cfg)
						must(sys.AttachSyntheticTraffic())
						res := sys.Run(o.synthCycles() * 4)
						return Fig7Row{
							Workload: tc.Pattern, FF: ff, Workers: w,
							Wall: res.Wall, Skipped: res.SkippedCycles,
						}, nil
					},
				})
			}
		}
	}
	results := runSweep(o, true, items)
	rows := collect[Fig7Row](results)
	var noFF time.Duration
	for i := range rows {
		if !rows[i].FF {
			noFF = rows[i].Wall
		}
		rows[i].Speedup = float64(noFF) / float64(rows[i].Wall)
	}
	return rows, finalize(results, rows)
}

// ---------------------------------------------------------------------------
// Fig 12: trace-driven vs integrated core+network simulation of Cannon's
// matrix multiply.

// Fig12Result compares the two methodologies.
type Fig12Result struct {
	IdealCycles       uint64 // app runtime under the ideal 1-cycle network
	TraceReplayCycles uint64 // network time to replay the captured trace
	IntegratedCycles  uint64 // true core+network co-simulated runtime
	// Normalized to the integrated run (the paper's presentation).
	NormInjectionRateTrace float64
	NormExecTimeTrace      float64
	PacketsSent            uint64
}

// fig12 runs Cannon's algorithm three ways: under an ideal single-cycle
// network (logging a trace), replaying that trace through the cycle-level
// network, and fully integrated (cores coupled to the network). The
// trace-based methodology injects unrealistically fast and finishes far
// too early because it lacks the core<->network feedback loop (§IV-D).
// The ideal run executes first (the replay consumes its trace); the
// replay and integrated runs then proceed as independent sweep items.
func fig12(o Options) (Fig12Result, []sweep.Result) {
	o.fill()
	q, b := 4, 4
	if o.Tiny {
		q, b = 2, 4
	}
	if o.Full {
		q, b = 8, 16 // 64 cores, 128x128 matrix as in the paper
	}
	img := mustImage(workloads.CannonSource(q, b))

	// The MIPS runs are the longest single simulations in the suite;
	// weight them at the host width so each gets a full engine worker
	// complement (as the pre-sweep code did) rather than one slot.
	hostW := runtime.GOMAXPROCS(0)
	// The replay and integrated runs are a measurement pair: the figure's
	// ratios compare methodologies, so both must observe identical
	// arbitration/RNG streams.
	pairSeed := sweep.PairSeed(o.Seed, "fig12")
	idealResults := runSweep(o, false, []sweep.Item{{
		Key: "fig12/ideal",
		Run: func(ctx sweep.Ctx) (any, error) {
			return core.RunMIPSIdeal(q*q, img, 500_000_000), nil
		},
	}})
	ideal := idealResults[0].Value.(core.IdealMIPSResult)

	results := runSweep(o, false, []sweep.Item{
		{
			Key:    "fig12/replay",
			Weight: hostW,
			Run: func(ctx sweep.Ctx) (any, error) {
				cfg := config.Default()
				cfg.Topology.Width, cfg.Topology.Height = q, q
				cfg.Engine.Workers = ctx.Workers
				cfg.Engine.Seed = pairSeed
				sys := o.system(cfg)
				sys.AttachTrace(ideal.Trace)
				res := sys.RunUntil(500_000_000, func(uint64) bool { return sys.TraceDone() })
				return res.Cycles + res.SkippedCycles, nil
			},
		},
		{
			Key:    "fig12/integrated",
			Weight: hostW,
			Run: func(ctx sweep.Ctx) (any, error) {
				cfg := config.Default()
				cfg.Topology.Width, cfg.Topology.Height = q, q
				cfg.Engine.Workers = ctx.Workers
				cfg.Engine.Seed = pairSeed
				sys := o.system(cfg)
				cores := sys.AttachMIPS(allNodes(q*q), img)
				res := sys.RunUntil(500_000_000, sys.CoresHalted(cores))
				return res.Cycles + res.SkippedCycles, nil
			},
		},
	})
	replayCycles := results[0].Value.(uint64)
	intCycles := results[1].Value.(uint64)
	traceRate := float64(ideal.PacketsSent) / float64(replayCycles)
	intRate := float64(ideal.PacketsSent) / float64(intCycles)
	r := Fig12Result{
		IdealCycles:            ideal.Cycles,
		TraceReplayCycles:      replayCycles,
		IntegratedCycles:       intCycles,
		NormInjectionRateTrace: traceRate / intRate,
		NormExecTimeTrace:      float64(replayCycles) / float64(intCycles),
		PacketsSent:            ideal.PacketsSent,
	}
	// The ideal run's trace is too large to archive per document; record
	// only the scalar outcomes alongside the final result.
	idealResults[0].Value = ideal.Cycles
	all := append(idealResults, results...)
	all = append(all, sweep.Result{Index: len(all), Key: "fig12/result", Value: r})
	return r, all
}

// ---------------------------------------------------------------------------
// shared helpers

func mustSystem(cfg config.Config) *core.System {
	s, err := core.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return s
}

// system builds a run's simulation system, attaching the options probe
// when one is set. Every figure run goes through here so that a single
// probe observes the whole figure.
func (o *Options) system(cfg config.Config) *core.System {
	sys := mustSystem(cfg)
	if o.Probe != nil {
		sys.SetProbe(o.Probe)
	}
	return sys
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
}

func mustImage(src string) *mips.Image {
	img, err := mips.Assemble(src)
	if err != nil {
		panic(fmt.Sprintf("experiments: assemble: %v", err))
	}
	return img
}

func allNodes(n int) []noc.NodeID {
	out := make([]noc.NodeID, n)
	for i := range out {
		out[i] = noc.NodeID(i)
	}
	return out
}

// splashTrace builds a benchmark trace sized for an 8x8 (64-core) run,
// matching the paper's SPLASH methodology (64 application threads,
// x86 clock 10x the network clock folded into the profiles). The trace
// seed is the sweep master seed — never a per-run seed — so every
// configuration of a figure replays the identical trace.
func splashTrace(b splash.Benchmark, o Options, cycles uint64, intensity float64) *trace.Trace {
	tr, err := splash.Generate(b, splash.Params{
		Nodes:     64,
		Width:     8,
		Height:    8,
		Cycles:    cycles,
		Seed:      o.Seed,
		Intensity: intensity,
	})
	if err != nil {
		panic(err)
	}
	return tr
}
