package core

import (
	"fmt"
	"testing"

	"hornet/internal/config"
	"hornet/internal/noc"
	"hornet/internal/trace"
)

// smallCfg returns a quick 4x4 mesh configuration for unit tests.
func smallCfg() config.Config {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.WarmupCycles = 1000
	cfg.AnalyzedCycles = 5000
	cfg.Power.EpochCycles = 1000
	return cfg
}

func TestUniformTrafficDelivers(t *testing.T) {
	cfg := smallCfg()
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.02}}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachSyntheticTraffic(); err != nil {
		t.Fatal(err)
	}
	sys.Run(20_000)
	sum := sys.Summary()
	if sum.PacketsDelivered == 0 {
		t.Fatalf("no packets delivered: %+v", sum)
	}
	if sum.PacketsInjected < sum.PacketsDelivered {
		t.Fatalf("delivered %d > injected %d", sum.PacketsDelivered, sum.PacketsInjected)
	}
	if sum.AvgPacketLatency < 4 {
		t.Fatalf("implausibly low latency %.2f", sum.AvgPacketLatency)
	}
	t.Logf("summary:\n%s", sum.Report())
	// Flit conservation: injected = delivered + in flight.
	inflight := sys.InFlight()
	if int64(sum.FlitsInjected) != int64(sum.FlitsDelivered)+inflight {
		t.Fatalf("flit conservation violated: inj=%d del=%d inflight=%d",
			sum.FlitsInjected, sum.FlitsDelivered, inflight)
	}
}

func TestDeterminismAcrossWorkers(t *testing.T) {
	cycles := uint64(10_000)
	workerSet := []int{2, 3, 4, 7}
	if testing.Short() {
		cycles = 4_000
		workerSet = []int{2, 4}
	}
	run := func(workers int) string {
		cfg := smallCfg()
		cfg.Engine.Workers = workers
		cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.05}}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AttachSyntheticTraffic(); err != nil {
			t.Fatal(err)
		}
		sys.Run(cycles)
		sum := sys.Summary()
		return fmt.Sprintf("%d %d %d %d %.6f %.6f",
			sum.PacketsInjected, sum.PacketsDelivered,
			sum.FlitsInjected, sum.FlitsDelivered,
			sum.AvgFlitLatency, sum.AvgPacketLatency)
	}
	ref := run(1)
	for _, w := range workerSet {
		if got := run(w); got != ref {
			t.Fatalf("workers=%d diverged:\n got %s\nwant %s", w, got, ref)
		}
	}
}

func TestTraceReplayAndDrain(t *testing.T) {
	cfg := smallCfg()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{}
	tr.Add(10, 0, 15, 8)
	tr.Add(10, 15, 0, 8)
	tr.AddPeriodic(100, 5, 10, 4, 50, 10)
	sys.AttachTrace(tr)
	sys.RunUntil(100_000, func(uint64) bool { return sys.TraceDone() })
	sum := sys.Summary()
	want := uint64(2 + 10)
	if sum.PacketsDelivered != want {
		t.Fatalf("delivered %d packets, want %d", sum.PacketsDelivered, want)
	}
	if sys.InFlight() != 0 {
		t.Fatalf("network not drained: %d flits in flight", sys.InFlight())
	}
}

func TestFastForwardTransparency(t *testing.T) {
	run := func(ff bool) (string, uint64) {
		cfg := smallCfg()
		cfg.Engine.FastForward = ff
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := &trace.Trace{}
		tr.Add(100, 0, 15, 8)
		tr.Add(5_000, 3, 12, 8)
		tr.Add(50_000, 15, 0, 8)
		sys.AttachTrace(tr)
		res := sys.RunUntil(100_000, func(uint64) bool { return sys.TraceDone() })
		sum := sys.Summary()
		key := fmt.Sprintf("%d %d %.6f", sum.PacketsDelivered, sum.FlitsDelivered, sum.AvgPacketLatency)
		return key, res.SkippedCycles
	}
	slow, skipped0 := run(false)
	fast, skippedFF := run(true)
	if slow != fast {
		t.Fatalf("fast-forward changed results:\n ff: %s\n    %s", fast, slow)
	}
	if skipped0 != 0 {
		t.Fatalf("non-FF run skipped %d cycles", skipped0)
	}
	if skippedFF == 0 {
		t.Fatalf("fast-forward skipped nothing on an idle-heavy trace")
	}
	t.Logf("fast-forward skipped %d cycles", skippedFF)
}

func TestRoutingAlgorithmsDeliver(t *testing.T) {
	for _, alg := range []string{
		config.RouteXY, config.RouteYX, config.RouteO1Turn,
		config.RouteROMM, config.RouteValiant, config.RoutePROM, config.RouteAdaptive,
	} {
		t.Run(alg, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Routing.Algorithm = alg
			cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.02}}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.AttachSyntheticTraffic(); err != nil {
				t.Fatal(err)
			}
			cycles := uint64(15_000)
			if testing.Short() {
				cycles = 6_000
			}
			sys.Run(cycles)
			sum := sys.Summary()
			if sum.PacketsDelivered == 0 {
				t.Fatalf("%s delivered nothing", alg)
			}
			for id, fr := range sum.Flows {
				if fr.OrderViolations > 0 && cfg.Router.VCAlloc == config.VCAEDVCA {
					t.Fatalf("flow %d reordered %d times", id, fr.OrderViolations)
				}
			}
		})
	}
}

func TestTorusAndRingDeliver(t *testing.T) {
	for _, kind := range []string{config.TopoTorus, config.TopoRing} {
		t.Run(kind, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Topology.Kind = kind
			if kind == config.TopoRing {
				cfg.Topology.Width, cfg.Topology.Height = 8, 0
			}
			cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.02}}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.AttachSyntheticTraffic(); err != nil {
				t.Fatal(err)
			}
			sys.Run(15_000)
			if sys.Summary().PacketsDelivered == 0 {
				t.Fatalf("%s delivered nothing", kind)
			}
		})
	}
}

func TestMultilayerMeshesDeliver(t *testing.T) {
	for _, kind := range []string{config.TopoMeshX1, config.TopoMeshX1Y1, config.TopoMeshXCube} {
		t.Run(kind, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Topology = config.TopologyConfig{Kind: kind, Width: 3, Height: 3, Layers: 2}
			cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.02}}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.AttachSyntheticTraffic(); err != nil {
				t.Fatal(err)
			}
			sys.Run(15_000)
			if sys.Summary().PacketsDelivered == 0 {
				t.Fatalf("%s delivered nothing", kind)
			}
		})
	}
}

func TestLooseSyncFunctionalCorrectness(t *testing.T) {
	// Loose synchronization must preserve functional behaviour: all
	// packets still delivered, in order per flow (paper §II-C).
	cfg := smallCfg()
	cfg.Engine.SyncPeriod = 5
	cfg.Engine.Workers = 4
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternShuffle, InjectionRate: 0.05}}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachSyntheticTraffic(); err != nil {
		t.Fatal(err)
	}
	sys.Run(20_000)
	sum := sys.Summary()
	if sum.PacketsDelivered == 0 {
		t.Fatal("no packets delivered under loose sync")
	}
	if int64(sum.FlitsInjected) != int64(sum.FlitsDelivered)+sys.InFlight() {
		t.Fatalf("flit conservation violated under loose sync")
	}
}

func TestEjectionOnlyToDestination(t *testing.T) {
	// The router panics if a flit ejects at the wrong node, so a clean
	// congested run across algorithms is itself the assertion.
	cfg := smallCfg()
	cfg.Routing.Algorithm = config.RouteROMM
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.2}}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachSyntheticTraffic(); err != nil {
		t.Fatal(err)
	}
	sys.Run(10_000)
	if sys.Summary().FlitsDelivered == 0 {
		t.Fatal("no flits delivered")
	}
}

var _ = noc.InvalidNode

// TestLooseSyncConservesFlits is the regression test for the arrival-
// stamp underflow: with several workers and sync_period > 1 a neighbour
// can push a flit after the owner's scan, and the old router, which peeked
// every ingress VC again in each egress round, could pop it in the same
// cycle, driving the stamp ring negative and panicking on an engine
// worker. The router now pops only VCs its scan listed as occupied, so
// such a flit waits for the next scan. Any panic or lost flit fails the
// run.
func TestLooseSyncConservesFlits(t *testing.T) {
	cycles := uint64(20_000)
	if testing.Short() {
		cycles = 5_000
	}
	for _, pattern := range []string{config.PatternTranspose, config.PatternUniform} {
		for _, workers := range []int{2, 4} {
			for _, period := range []int{5, 50} {
				t.Run(fmt.Sprintf("%s/workers-%d/sync-%d", pattern, workers, period), func(t *testing.T) {
					cfg := config.Default()
					cfg.Engine.Workers = workers
					cfg.Engine.SyncPeriod = period
					cfg.Traffic = []config.TrafficConfig{{Pattern: pattern, InjectionRate: 0.05}}
					sys, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.AttachSyntheticTraffic(); err != nil {
						t.Fatal(err)
					}
					if res := sys.Run(cycles); res.Err != nil || res.Cycles != cycles {
						t.Fatalf("run: %+v", res)
					}
					sum := sys.Summary()
					if sum.PacketsDelivered == 0 {
						t.Fatal("no packets delivered")
					}
					if int64(sum.FlitsInjected-sum.FlitsDelivered) != sys.InFlight() {
						t.Fatalf("flit conservation violated: injected %d, delivered %d, in flight %d",
							sum.FlitsInjected, sum.FlitsDelivered, sys.InFlight())
					}
				})
			}
		}
	}
}

// parkedVCs counts the ingress VCs asleep across the machine and fails the
// test, naming router, VC and egress record, if one of them has no reason
// to be: a wake was lost.
func parkedVCs(t *testing.T, sys *System) (n int) {
	t.Helper()
	for _, tile := range sys.Tiles() {
		parked, lost := tile.Router.Parked()
		for _, l := range lost {
			t.Errorf("cycle %d: lost wake: %s", sys.Clock(), l)
		}
		n += parked
	}
	if t.Failed() {
		t.FailNow()
	}
	return n
}

// TestLooseSyncConservesFlitsDrainsPastSaturation is the no-lost-wake
// check: an 8x8 mesh under shuffle traffic well past saturation, where most
// occupied VCs are parked on a credit, stops injecting and must deliver
// everything it holds. A VC left asleep after its credit came back would
// hold its flits, and everything behind them, for ever; the test does not
// wait for that but looks at every synchronization chunk's end for a VC
// asleep with a credit available (Router.Parked names it). drainBound is
// four times what the cycle-accurate machine needs for this backlog.
func TestLooseSyncConservesFlitsDrainsPastSaturation(t *testing.T) {
	const loaded, drainBound, chunk = 3_000, 10_000, 250
	workerSet := []int{1, 3}
	if testing.Short() {
		workerSet = []int{3}
	}
	for _, workers := range workerSet {
		for _, period := range []int{1, 5, 50} {
			t.Run(fmt.Sprintf("workers-%d/sync-%d", workers, period), func(t *testing.T) {
				cfg := config.Default()
				cfg.Engine.Workers = workers
				cfg.Engine.SyncPeriod = period
				cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternShuffle, InjectionRate: 0.05}}
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.AttachSyntheticTraffic(); err != nil {
					t.Fatal(err)
				}
				parked := 0
				for sys.Clock() < loaded {
					sys.Run(chunk)
					parked += parkedVCs(t, sys)
				}
				if parked == 0 {
					t.Fatal("no VC was parked at any chunk boundary: the machine is not past saturation")
				}
				sys.StopTraffic()
				pending := func() (n int) {
					for _, tile := range sys.Tiles() {
						n += tile.Router.PendingPackets()
					}
					return n
				}
				for sys.InFlight() > 0 || pending() > 0 {
					if sys.Clock() >= loaded+drainBound {
						t.Fatalf("%d flits in flight and %d packets queued %d cycles after the last injection",
							sys.InFlight(), pending(), drainBound)
					}
					sys.Run(chunk)
					parkedVCs(t, sys)
				}
				sum := sys.Summary()
				if sum.FlitsInjected == 0 || sum.FlitsInjected != sum.FlitsDelivered {
					t.Fatalf("drained, but injected %d flits and delivered %d", sum.FlitsInjected, sum.FlitsDelivered)
				}
			})
		}
	}
}

// TestRouterSteadyStateAllocFree guards the zero-allocation router hot
// path: once the routing-table lines and per-flow statistics records of a
// fixed flow set exist, stepping every tile through a cycle allocates
// nothing. Transpose traffic has one destination per source, so the flow
// set is complete after a short warm-up.
func TestRouterSteadyStateAllocFree(t *testing.T) {
	cfg := config.Default()
	cfg.Engine.Workers = 1
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.05}}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachSyntheticTraffic(); err != nil {
		t.Fatal(err)
	}
	sys.Run(5_000)
	cycle := sys.Clock()
	tiles := sys.Tiles()
	allocs := testing.AllocsPerRun(2_000, func() {
		for _, tile := range tiles {
			tile.PhaseTransfer(cycle)
		}
		for _, tile := range tiles {
			tile.PhaseCommit(cycle)
		}
		cycle++
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per simulated cycle in steady state, want 0", allocs)
	}
	if sys.Summary().FlitsDelivered == 0 {
		t.Fatal("no traffic flowed: the guard measured an idle mesh")
	}
}

// TestBuildAllocatesPerRouterNotPerVC is the construction-side layout
// guard: a router's ingress state is one block of VC records, one flit
// slab and one stamp slab, so building the 1000-core machine costs a
// bounded number of allocations per router (28 when this was written),
// not three objects for each of its 20 ingress VCs on top (126).
func TestBuildAllocatesPerRouterNotPerVC(t *testing.T) {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 32, 32
	routers := float64(cfg.Topology.Nodes())
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perRouter := allocs / routers; perRouter > 40 {
		t.Fatalf("building a 32x32 system takes %.1f allocations per router, want <= 40", perRouter)
	}
}

// BenchmarkUniformMeshCycle is the benchmark's mesh8-serial machine under
// the profiler (`make profile-mesh8`): 8x8, uniform traffic at 0.05, one
// engine worker — noc, routing and traffic do nearly all the work — after a
// 20 000-cycle warm-up. One b.N is one simulated cycle of all 64 tiles; it
// reports host time per tile-cycle.
func BenchmarkUniformMeshCycle(b *testing.B) {
	cfg := config.Default()
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.05}}
	cfg.Engine = config.EngineConfig{Workers: 1, SyncPeriod: 1, Seed: 1}
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.AttachSyntheticTraffic(); err != nil {
		b.Fatal(err)
	}
	sys.Run(20_000)
	b.ReportAllocs()
	b.ResetTimer()
	sys.Run(uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(cfg.Topology.Nodes())), "ns/tile-cycle")
}

// BenchmarkSaturatedMeshCycle is the 1000-core point under the profiler
// (`make profile-mesh`): the benchmark's mesh32-par machine — 32x32, shuffle
// traffic at 0.02, past saturation, two engine workers — after a
// 1 000-cycle warm-up. One b.N is one simulated cycle of all 1024 tiles; it
// reports host time and buffer reads (flit moves) per tile-cycle.
func BenchmarkSaturatedMeshCycle(b *testing.B) {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 32, 32
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternShuffle, InjectionRate: 0.02}}
	cfg.Engine = config.EngineConfig{Workers: 2, SyncPeriod: 1, Seed: 1}
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.AttachSyntheticTraffic(); err != nil {
		b.Fatal(err)
	}
	sys.Run(1_000)
	reads := sys.Summary().BufReads
	b.ReportAllocs()
	b.ResetTimer()
	sys.Run(uint64(b.N))
	b.StopTimer()
	tileCycles := float64(b.N) * float64(cfg.Topology.Nodes())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tileCycles, "ns/tile-cycle")
	b.ReportMetric(float64(sys.Summary().BufReads-reads)/tileCycles, "bufreads/tile-cycle")
}
