package experiments

import (
	"fmt"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/sweep"
)

// ---------------------------------------------------------------------------
// conv: measurement-window convergence, the warmup-once/fork-many
// showcase. Every item measures the same warmed-up network over a
// different window length, answering "how long must the measured phase
// be before latency statistics stabilize?" (the paper's Table I fixes
// 2M cycles; this experiment shows what that buys). All items share one
// warmup prefix — identical configuration and seed, differing only in
// the measured-phase knob — so the sweep simulates the warmup once,
// snapshots it, and forks every window from the snapshot. The emitted
// document is byte-identical with reuse on or off (the snapshot
// round-trip contract), at any parallelism.

// ConvRow is one measurement-window point.
type ConvRow struct {
	Window           uint64  // measured cycles
	AvgPacketLatency float64 // over the window
	Throughput       float64 // delivered flits / node / cycle
	DeltaPct         float64 // |lat - lat_longest| / lat_longest * 100
}

// convConfig is the shared simulation configuration: one network, one
// seed, warmed once. AnalyzedCycles is zeroed because the windows are
// driven explicitly — every fork must build a system with the identical
// config hash or the snapshot guard would (correctly) refuse to restore.
func convConfig(o Options, seed uint64) (config.Config, uint64) {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 8, 8
	cfg.Engine.Seed = seed
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.05}}
	cfg.WarmupCycles = int(o.pick(4_000, 30_000, 200_000))
	cfg.AnalyzedCycles = 0
	return cfg, uint64(cfg.WarmupCycles)
}

// convWindows returns the ascending measured-window lengths. The sum
// stays well under figures × warmup so the sweep is warmup-dominated —
// the regime the warmup-once/fork-many machinery exists for.
func convWindows(o Options) []uint64 {
	base := o.pick(250, 500, 25_000)
	mult := []uint64{1, 2, 4, 8}
	if !o.Tiny {
		mult = append(mult, 16, 32)
	}
	out := make([]uint64, len(mult))
	for i, m := range mult {
		out[i] = base * m
	}
	return out
}

// convergence runs the measurement-window convergence sweep.
func convergence(o Options) ([]ConvRow, []sweep.Result) {
	o.fill()
	if o.Warmups == nil && !o.NoWarmupReuse {
		// No shared cache supplied: a private in-memory one still makes
		// this figure's items share their warmup prefix.
		o.Warmups = sweep.NewSnapshotCache("")
	}
	// One seed for the whole group: the windows measure the same warmed
	// network, so they must observe identical stochastic inputs.
	seed := sweep.PairSeed(o.Seed, "conv")
	windows := convWindows(o)
	items := make([]sweep.Item, len(windows))
	for i, win := range windows {
		win := win
		items[i] = sweep.Item{
			Key: fmt.Sprintf("conv/window%d", win),
			// Explicit shared seed: every window measures the same warmed
			// network, and the document's per-run seed records it.
			Seed: seed,
			Run: func(c sweep.Ctx) (any, error) {
				cfg, warmup := convConfig(o, c.Seed)
				cfg.Engine.Workers = c.Workers
				sys, err := warmedSystem(o, c, cfg, warmup)
				if err != nil {
					return nil, err
				}
				sys.ResetStats()
				res := sys.Run(win)
				s := sys.Summary()
				return ConvRow{
					Window:           win,
					AvgPacketLatency: s.AvgPacketLatency,
					Throughput:       s.Throughput(cfg.Topology.Nodes(), res.Cycles+res.SkippedCycles),
				}, nil
			},
		}
	}
	results := runSweep(o, false, items)
	rows := collect[ConvRow](results)
	ref := rows[len(rows)-1].AvgPacketLatency
	for i := range rows {
		rows[i].DeltaPct = 0
		if ref > 0 {
			d := (rows[i].AvgPacketLatency - ref) / ref * 100
			if d < 0 {
				d = -d
			}
			rows[i].DeltaPct = d
		}
	}
	return rows, finalize(results, rows)
}

// warmedSystem returns a system advanced past its warmup via
// core.WarmedSystem: restored from the warmup snapshot cache when reuse
// is enabled (simulating the prefix only once per (config, seed,
// warmup) group), or by simulating the warmup directly.
func warmedSystem(o Options, c sweep.Ctx, cfg config.Config, warmupCycles uint64) (*core.System, error) {
	warm := o.Warmups
	if o.NoWarmupReuse {
		warm = nil
	}
	return core.WarmedSystem(c.Context, warm, cfg, warmupCycles, nil, func() (*core.System, error) {
		sys, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := sys.AttachSyntheticTraffic(); err != nil {
			return nil, err
		}
		return sys, nil
	})
}
