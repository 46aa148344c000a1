package experiments

import (
	"fmt"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/noc"
	"hornet/internal/splash"
	"hornet/internal/sweep"
	"hornet/internal/thermal"
)

// ---------------------------------------------------------------------------
// Fig 8: the effect of congestion modeling on measured flit latency.

// Fig8Row compares congestion-accurate and congestion-oblivious latency
// for one benchmark.
type Fig8Row struct {
	Benchmark         string
	WithCongestion    float64 // cycle-level simulation
	WithoutCongestion float64 // hop-count latency model
	Ratio             float64
}

// fig8 runs RADIX (high traffic) and SWAPTIONS (low traffic) traces on a
// 64-core 8x8 mesh with 4 VCs and measures average flit latency under the
// cycle-accurate model versus the congestion-oblivious hop-count model.
func fig8(o Options) ([]Fig8Row, []sweep.Result) {
	o.fill()
	cycles := o.splashCycles()
	var items []sweep.Item
	for _, b := range []splash.Benchmark{splash.Radix, splash.Swaptions} {
		items = append(items, sweep.Item{
			Key: fmt.Sprintf("fig8/%s", b),
			Run: func(ctx sweep.Ctx) (any, error) {
				tr := splashTrace(b, o, cycles, 1.0)
				sys := splashSystem(o, config.RouteXY, config.VCADynamic, 4, 8, ctx)
				sys.AttachTrace(tr)
				sys.RunUntil(cycles*20, func(uint64) bool { return sys.TraceDone() })
				measured := sys.Summary().AvgFlitLatency
				ideal := core.IdealTrace(sys.Topo, tr).AvgFlitLatency
				return Fig8Row{
					Benchmark:         string(b),
					WithCongestion:    measured,
					WithoutCongestion: ideal,
					Ratio:             measured / ideal,
				}, nil
			},
		})
	}
	results := runSweep(o, false, items)
	return collect[Fig8Row](results), results
}

// ---------------------------------------------------------------------------
// Fig 9: VC count / buffer size tradeoffs under congestion.

// Fig9Row is one (benchmark, VC configuration, VCA policy) latency.
type Fig9Row struct {
	Benchmark string
	VCs       int
	BufFlits  int
	VCA       string
	Latency   float64
}

// fig9 reproduces the counterintuitive buffer-space result: with VC size
// held at 8 flits, going from 2 to 4 VCs *increases* in-network latency
// under congestion (total buffering doubles and tail flits wait behind
// more competitors); halving VC size to keep total buffer space constant
// (4VCx4) beats 2VCx8.
func fig9(o Options) ([]Fig9Row, []sweep.Result) {
	o.fill()
	cycles := o.splashCycles()
	configs := []struct{ vcs, buf int }{{2, 8}, {4, 8}, {4, 4}}
	var items []sweep.Item
	for _, b := range []splash.Benchmark{splash.Swaptions, splash.Radix} {
		// Calibrated so both benchmarks run congested, as in the paper's
		// Fig 9 (the 10x clock compression makes even SWAPTIONS heavy).
		intensity := 2.0
		if b == splash.Swaptions {
			intensity = 12.0
		}
		// One trace per benchmark, shared by all six configurations:
		// injectors copy events, so concurrent runs replay it safely.
		tr := splashTrace(b, o, cycles, intensity)
		for _, cc := range configs {
			for _, vcaPolicy := range []string{config.VCADynamic, config.VCAEDVCA} {
				items = append(items, sweep.Item{
					Key: fmt.Sprintf("fig9/%s/%dVCx%d/%s", b, cc.vcs, cc.buf, vcaPolicy),
					Run: func(ctx sweep.Ctx) (any, error) {
						sys := splashSystem(o, config.RouteXY, vcaPolicy, cc.vcs, cc.buf, ctx)
						sys.AttachTrace(tr)
						sys.RunUntil(cycles*20, func(uint64) bool { return sys.TraceDone() })
						return Fig9Row{
							Benchmark: string(b),
							VCs:       cc.vcs,
							BufFlits:  cc.buf,
							VCA:       vcaPolicy,
							Latency:   sys.Summary().AvgPacketLatency,
						}, nil
					},
				})
			}
		}
	}
	results := runSweep(o, false, items)
	return collect[Fig9Row](results), results
}

// ---------------------------------------------------------------------------
// Fig 10: routing x VCA on the WATER benchmark.

// Fig10Row is one (routing, VCA, VC count) latency on WATER.
type Fig10Row struct {
	Routing string
	VCA     string
	VCs     int
	Latency float64
}

// fig10 measures in-network latency on a congested WATER trace for
// XY/O1TURN/ROMM x dynamic/EDVCA at 2 and 4 VCs: path-diverse algorithms
// win, but by an unimpressive margin (§IV-C).
func fig10(o Options) ([]Fig10Row, []sweep.Result) {
	o.fill()
	cycles := o.splashCycles()
	// All twelve configurations replay one shared WATER trace.
	tr := splashTrace(splash.Water, o, cycles, 8.0)
	var items []sweep.Item
	for _, vcs := range []int{2, 4} {
		for _, alg := range []string{config.RouteXY, config.RouteO1Turn, config.RouteROMM} {
			for _, vcaPolicy := range []string{config.VCADynamic, config.VCAEDVCA} {
				items = append(items, sweep.Item{
					Key: fmt.Sprintf("fig10/%s/%s/%dVC", alg, vcaPolicy, vcs),
					Run: func(ctx sweep.Ctx) (any, error) {
						sys := splashSystem(o, alg, vcaPolicy, vcs, 8, ctx)
						sys.AttachTrace(tr)
						sys.RunUntil(cycles*20, func(uint64) bool { return sys.TraceDone() })
						return Fig10Row{
							Routing: alg,
							VCA:     vcaPolicy,
							VCs:     vcs,
							Latency: sys.Summary().AvgPacketLatency,
						}, nil
					},
				})
			}
		}
	}
	results := runSweep(o, false, items)
	return collect[Fig10Row](results), results
}

// ---------------------------------------------------------------------------
// Fig 11: memory-controller count.

// Fig11Row is one (controllers, routing, VCA) latency on RADIX memory
// traffic.
type Fig11Row struct {
	Controllers int
	Routing     string
	VCA         string
	Latency     float64
}

// fig11 redirects the RADIX profile at memory controllers: one in the
// lower-left corner versus five spread over the die. Five controllers
// help a lot — but nowhere near five-fold — and routing/VCA choice stops
// mattering once congestion is spread (§IV-C).
func fig11(o Options) ([]Fig11Row, []sweep.Result) {
	o.fill()
	cycles := o.splashCycles()
	mcSets := []struct {
		n     int
		nodes []noc.NodeID
	}{
		{1, []noc.NodeID{0}},                // lower-left corner
		{5, []noc.NodeID{0, 7, 56, 63, 27}}, // corners + center
	}
	var items []sweep.Item
	for _, mcs := range mcSets {
		// One memory trace per controller placement, shared by the six
		// routing/VCA configurations.
		tr, err := splash.GenerateMemory(splash.Radix, splash.Params{
			Nodes: 64, Width: 8, Height: 8, Cycles: cycles,
			Seed: o.Seed, Intensity: 0.5,
		}, mcs.nodes)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		for _, alg := range []string{config.RouteXY, config.RouteO1Turn, config.RouteROMM} {
			for _, vcaPolicy := range []string{config.VCADynamic, config.VCAEDVCA} {
				items = append(items, sweep.Item{
					Key: fmt.Sprintf("fig11/%dMC/%s/%s", mcs.n, alg, vcaPolicy),
					Run: func(ctx sweep.Ctx) (any, error) {
						sys := splashSystem(o, alg, vcaPolicy, 4, 8, ctx)
						sys.AttachTrace(tr)
						sys.AttachTraceControllers(mcs.nodes, 50, 8)
						sys.RunUntil(cycles*40, func(uint64) bool {
							return sys.TraceDone() && sys.InFlight() == 0
						})
						return Fig11Row{
							Controllers: mcs.n,
							Routing:     alg,
							VCA:         vcaPolicy,
							Latency:     sys.Summary().AvgPacketLatency,
						}, nil
					},
				})
			}
		}
	}
	results := runSweep(o, false, items)
	return collect[Fig11Row](results), results
}

// ---------------------------------------------------------------------------
// Fig 13: transient temperature traces.

// Fig13Series is one benchmark's temperature-versus-time trace.
type Fig13Series struct {
	Benchmark string
	Cycle     []uint64
	MaxTempC  []float64
	MeanTempC []float64
	// SwingC is max(MaxTempC) - min(MaxTempC) after warm-in: the
	// activity-dependent variation the paper highlights for RADIX.
	SwingC float64
}

// fig13 runs OCEAN (steady stencil) and RADIX (phased bursts) and feeds
// the per-epoch tile power into the RC thermal grid: OCEAN's trace is
// flat while RADIX swings with its exchange phases (§IV-E). The scaled
// runs shrink the thermal capacitance so the die's time constant matches
// the shortened simulation window (the full-scale run uses the realistic
// constant over 16M cycles, as the paper does).
func fig13(o Options) ([]Fig13Series, []sweep.Result) {
	o.fill()
	cycles := o.pick(120_000, 400_000, 16_000_000)
	var items []sweep.Item
	for _, b := range []splash.Benchmark{splash.Ocean, splash.Radix} {
		items = append(items, sweep.Item{
			Key: fmt.Sprintf("fig13/%s", b),
			Run: func(ctx sweep.Ctx) (any, error) {
				tr := splashTrace(b, o, cycles, 1.0)
				sys := splashSystemFF(o, config.RouteXY, config.VCADynamic, 4, 8, false, ctx)
				sys.AttachTrace(tr)
				sys.RunUntil(cycles*4, func(c uint64) bool { return c >= cycles && sys.TraceDone() })

				tcfg := sys.Config.Thermal
				if !o.Full {
					tcfg.CJPerK = 2e-6 // slowest RC mode ~ 16us so 40us RADIX phases register
				}
				grid, err := thermal.NewGrid(8, 8, tcfg)
				if err != nil {
					return nil, err
				}
				epochSec := sys.Power.EpochSeconds()
				series := Fig13Series{Benchmark: string(b)}
				epochs := sys.Power.Epochs()
				// Normalize activity across the run so the power amplitude
				// lands in the paper's band while the temporal/spatial shape
				// is the measured one.
				peak := 0.0
				for e := 0; e < epochs; e++ {
					for _, w := range sys.Power.EpochPower(e) {
						if w > peak {
							peak = w
						}
					}
				}
				for e := 0; e < epochs; e++ {
					grid.Step(normalizePower(sys.Power.EpochPower(e), peak), epochSec)
					maxT, _ := grid.Max()
					series.Cycle = append(series.Cycle, uint64(e+1)*sys.Power.EpochCycles())
					series.MaxTempC = append(series.MaxTempC, maxT)
					series.MeanTempC = append(series.MeanTempC, grid.Mean())
				}
				// Swing after the first quarter (thermal warm-in).
				lo, hi := 1e9, -1e9
				for _, t := range series.MaxTempC[len(series.MaxTempC)/4:] {
					if t < lo {
						lo = t
					}
					if t > hi {
						hi = t
					}
				}
				series.SwingC = hi - lo
				return series, nil
			},
		})
	}
	results := runSweep(o, false, items)
	return collect[Fig13Series](results), results
}

// normalizePower maps measured per-tile NoC activity onto a tile power
// budget: 1 W static (core, caches, clock) plus up to 1.5 W of
// activity-proportional network/switch power. Absolute magnitudes are a
// documented calibration (we model a NoC, not ORION's exact circuits);
// the spatial and temporal distribution is the simulator's measurement.
func normalizePower(nocW []float64, peakW float64) []float64 {
	out := make([]float64, len(nocW))
	for i, w := range nocW {
		rel := 0.0
		if peakW > 0 {
			rel = w / peakW
		}
		out[i] = 1.0 + 1.5*rel
	}
	return out
}

// ---------------------------------------------------------------------------
// Fig 14: steady-state temperature maps.

// Fig14Map is one benchmark's steady-state per-tile temperatures.
type Fig14Map struct {
	Benchmark string
	Width     int
	TempsC    []float64
	MaxTempC  float64
	HotX      int
	HotY      int
	// CornerMCTempC is the temperature at the memory controller's corner
	// (0,0) — cooler than the centre despite hosting the MC (§IV-E).
	CornerMCTempC float64
}

// fig14 computes steady-state temperature maps for RADIX and WATER with
// XY routing and one corner memory controller: the benchmark's
// node-to-node traffic dominates and XY concentrates it through the mesh
// centre, so the hotspot sits there, not at the controller (§IV-E) —
// the paper's argument for central thermal-sensor placement.
func fig14(o Options) ([]Fig14Map, []sweep.Result) {
	o.fill()
	cycles := o.pick(60_000, 200_000, 2_000_000)
	var items []sweep.Item
	for _, b := range []splash.Benchmark{splash.Radix, splash.Water} {
		items = append(items, sweep.Item{
			Key: fmt.Sprintf("fig14/%s", b),
			Run: func(ctx sweep.Ctx) (any, error) {
				intensity := 1.0
				missFrac := 0.04
				if b == splash.Water {
					intensity = 8.0
					missFrac = 0.005 // water's base event count is ~8x radix's
				}
				tr := splashTrace(b, o, cycles, intensity)
				// The coherence traffic rides alongside corner-MC miss
				// traffic, exactly as in the paper's single-controller SPLASH
				// runs; the miss stream stays light relative to coherence
				// traffic.
				mcTr, err := splash.GenerateMemory(b, splash.Params{
					Nodes: 64, Width: 8, Height: 8, Cycles: cycles,
					Seed: o.Seed, Intensity: missFrac,
				}, []noc.NodeID{0})
				if err != nil {
					return nil, err
				}
				tr.Events = append(tr.Events, mcTr.Events...)
				tr.Sort()

				sys := splashSystemFF(o, config.RouteXY, config.VCADynamic, 4, 8, false, ctx)
				sys.AttachTrace(tr)
				sys.AttachTraceControllers([]noc.NodeID{0}, 50, 8)
				sys.RunUntil(cycles*40, func(uint64) bool { return sys.TraceDone() })

				grid, err := thermal.NewGrid(8, 8, sys.Config.Thermal)
				if err != nil {
					return nil, err
				}
				mp := sys.Power.MeanPower()
				peak := 0.0
				for _, w := range mp {
					if w > peak {
						peak = w
					}
				}
				temps := grid.SteadyState(normalizePower(mp, peak))
				m := Fig14Map{Benchmark: string(b), Width: 8, TempsC: temps}
				for i, t := range temps {
					if t > m.MaxTempC {
						m.MaxTempC = t
						m.HotX, m.HotY = i%8, i/8
					}
				}
				m.CornerMCTempC = temps[0]
				return m, nil
			},
		})
	}
	results := runSweep(o, false, items)
	return collect[Fig14Map](results), results
}

// ---------------------------------------------------------------------------
// §IV-A: link-load scaling law and flow starvation.

// Sec4aResult carries the scaling analysis.
type Sec4aResult struct {
	// MaxFlows[n] is the largest number of distinct flows crossing any
	// single directed link under XY all-to-all on an n x n mesh; the
	// paper's law is n^3/4.
	MaxFlows8  int
	MaxFlows32 int
	Law8       int // 8^3/4
	Law32      int // 32^3/4
	// StarvedFlows counts flows delivering < 10% of the mean under heavy
	// transpose load on the small mesh (starvation exists even at 8x8
	// under enough load; at 32x32 the paper observed fully starved flows).
	StarvedFlows int
	TotalFlows   int
}

// sec4a verifies the worst-link flow-count law analytically and
// demonstrates flow starvation under heavy load via simulation. The two
// analytic counts and the starvation simulation are independent sweep
// items.
func sec4a(o Options) (Sec4aResult, []sweep.Result) {
	o.fill()
	results := runSweep(o, false, []sweep.Item{
		{
			Key: "sec4a/maxflows/8",
			Run: func(sweep.Ctx) (any, error) { return maxLinkFlowsXY(8), nil },
		},
		{
			Key: "sec4a/maxflows/32",
			Run: func(sweep.Ctx) (any, error) { return maxLinkFlowsXY(32), nil },
		},
		{
			Key: "sec4a/starvation",
			Run: func(ctx sweep.Ctx) (any, error) {
				cfg := config.Default()
				cfg.Topology.Width, cfg.Topology.Height = 8, 8
				cfg.Engine.Workers = ctx.Workers
				cfg.Engine.Seed = ctx.Seed
				cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.35}}
				sys := o.system(cfg)
				must(sys.AttachSyntheticTraffic())
				sys.Run(o.synthCycles() * 2)
				sum := sys.Summary()
				return [2]int{len(sum.StarvedFlows(0.1)), len(sum.Flows)}, nil
			},
		},
	})
	starved := results[2].Value.([2]int)
	r := Sec4aResult{
		MaxFlows8:    results[0].Value.(int),
		MaxFlows32:   results[1].Value.(int),
		Law8:         8 * 8 * 8 / 4,
		Law32:        32 * 32 * 32 / 4,
		StarvedFlows: starved[0],
		TotalFlows:   starved[1],
	}
	all := append(results, sweep.Result{Index: len(results), Key: "sec4a/result", Value: r})
	return r, all
}

// maxLinkFlowsXY counts, for XY all-to-all on an n x n mesh, the maximum
// number of (src,dst) flows whose route crosses any one directed link.
// Links are indexed densely (node * 4 + direction) rather than hashed:
// the 32x32 case walks ~21M link crossings and map overhead dominated.
func maxLinkFlowsXY(n int) int {
	const (
		east = iota
		west
		north
		south
	)
	load := make([]int, n*n*4)
	idx := func(x, y int) int { return y*n + x }
	for sy := 0; sy < n; sy++ {
		for sx := 0; sx < n; sx++ {
			for dy := 0; dy < n; dy++ {
				for dx := 0; dx < n; dx++ {
					if sx == dx && sy == dy {
						continue
					}
					x, y := sx, sy
					for x != dx {
						dir := east
						if dx < x {
							dir = west
						}
						load[idx(x, y)*4+dir]++
						x += sign(dx - x)
					}
					for y != dy {
						dir := south
						if dy < y {
							dir = north
						}
						load[idx(x, y)*4+dir]++
						y += sign(dy - y)
					}
				}
			}
		}
	}
	max := 0
	for _, v := range load {
		if v > max {
			max = v
		}
	}
	return max
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	if v > 0 {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Table I smoke: every configuration row builds and runs briefly.

// tableI instantiates the paper's configuration matrix (Table I) and runs
// each combination for a short window, returning the labels exercised.
func tableI(o Options) ([]string, []sweep.Result) {
	o.fill()
	type combo struct {
		topoW, topoH int
		alg          string
		vca          string
		vcs, buf     int
	}
	combos := []combo{
		{8, 8, config.RouteXY, config.VCADynamic, 4, 4},
		{8, 8, config.RouteO1Turn, config.VCADynamic, 8, 8},
		{8, 8, config.RouteROMM, config.VCAEDVCA, 4, 8},
		{8, 8, config.RouteXY, config.VCAEDVCA, 8, 4},
	}
	if o.Full {
		combos = append(combos,
			combo{32, 32, config.RouteXY, config.VCADynamic, 4, 4},
			combo{32, 32, config.RouteO1Turn, config.VCAEDVCA, 8, 8},
		)
	}
	items := make([]sweep.Item, len(combos))
	for i, c := range combos {
		items[i] = sweep.Item{
			Key: "t1/" + sprintCombo(c.topoW, c.topoH, c.alg, c.vca, c.vcs, c.buf),
			Run: func(ctx sweep.Ctx) (any, error) {
				cfg := config.Default()
				cfg.Topology.Width, cfg.Topology.Height = c.topoW, c.topoH
				cfg.Routing.Algorithm = c.alg
				cfg.Router.VCAlloc = c.vca
				cfg.Router.VCsPerPort = c.vcs
				cfg.Router.VCBufFlits = c.buf
				cfg.Engine.Workers = ctx.Workers
				cfg.Engine.Seed = ctx.Seed
				cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.02}}
				sys := o.system(cfg)
				must(sys.AttachSyntheticTraffic())
				sys.Run(2_000)
				return sprintCombo(c.topoW, c.topoH, c.alg, c.vca, c.vcs, c.buf), nil
			},
		}
	}
	results := runSweep(o, false, items)
	return collect[string](results), results
}

func sprintCombo(w, h int, alg, vca string, vcs, buf int) string {
	return fmt.Sprintf("%s/%s %dx%d %dVCx%d", alg, vca, w, h, vcs, buf)
}

// splashSystem builds the 8x8 SPLASH replay system for a sweep run: the
// engine takes the run's derived seed and granted CPU slots.
func splashSystem(o Options, alg, vcaPolicy string, vcs, buf int, ctx sweep.Ctx) *core.System {
	return splashSystemFF(o, alg, vcaPolicy, vcs, buf, true, ctx)
}

// splashSystemFF allows disabling fast-forward: the thermal figures need
// every power epoch sampled, and FF would merge epochs across skipped
// idle stretches into artificially inflated samples.
func splashSystemFF(o Options, alg, vcaPolicy string, vcs, buf int, ff bool, ctx sweep.Ctx) *core.System {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 8, 8
	cfg.Routing.Algorithm = alg
	cfg.Router.VCAlloc = vcaPolicy
	cfg.Router.VCsPerPort = vcs
	cfg.Router.VCBufFlits = buf
	cfg.Engine.Workers = ctx.Workers
	cfg.Engine.Seed = ctx.Seed
	cfg.Engine.FastForward = ff
	cfg.Power.EpochCycles = 5_000
	return o.system(cfg)
}
