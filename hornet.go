// Package hornet is a Go reproduction of HORNET (Lis et al., "Scalable,
// accurate multicore simulation in the 1000-core era", ISPASS 2011): a
// parallel, highly configurable, cycle-level multicore simulator built
// around an ingress-queued wormhole virtual-channel router NoC.
//
// The package re-exports the library's public surface; the implementation
// lives under internal/. A minimal network-only simulation:
//
//	cfg := hornet.DefaultConfig()
//	cfg.Traffic = []hornet.TrafficConfig{{
//		Pattern:       hornet.PatternUniform,
//		InjectionRate: 0.02,
//	}}
//	sys, err := hornet.NewSystem(cfg)
//	if err != nil { ... }
//	if err := sys.AttachSyntheticTraffic(); err != nil { ... }
//	sys.RunWarmup()
//	sys.Run(200_000)
//	fmt.Println(sys.Summary().Report())
//
// Frontends beyond synthetic traffic: trace replay (AttachTrace), the
// built-in MIPS core with MPI-style network syscalls (AttachMIPS, see the
// mips assembler via AssembleMIPS), and shared memory with MSI or NUCA
// (AttachMemory + AttachMIPSShared). The paper's Pin frontend (native x86
// binaries) is not reproduced. Power and thermal models are always on:
// sys.Power holds per-tile per-epoch samples and NewThermalGrid consumes
// them.
package hornet

import (
	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/power"
	"hornet/internal/sim"
	"hornet/internal/splash"
	"hornet/internal/stats"
	"hornet/internal/thermal"
	"hornet/internal/topology"
	"hornet/internal/trace"
)

// Core types, re-exported.
type (
	// Config is the root simulation configuration (see DefaultConfig).
	Config = config.Config
	// TrafficConfig describes one synthetic traffic source.
	TrafficConfig = config.TrafficConfig
	// MemoryConfig describes the cache/coherence/memory-controller setup.
	MemoryConfig = config.MemoryConfig
	// System is a fully wired simulation.
	System = core.System
	// Summary is the aggregated statistics view.
	Summary = stats.Summary
	// RunResult reports one run's cycle and wall-clock accounting.
	RunResult = sim.RunResult
	// NodeID identifies a tile.
	NodeID = noc.NodeID
	// FlowID identifies a traffic flow.
	FlowID = noc.FlowID
	// Packet is the bridge-level transfer unit.
	Packet = noc.Packet
	// Trace is an injection-event trace.
	Trace = trace.Trace
	// PowerModel accumulates per-tile per-epoch power samples.
	PowerModel = power.Model
	// ThermalGrid is the HOTSPOT-style RC thermal solver.
	ThermalGrid = thermal.Grid
	// MIPSImage is an assembled MIPS program.
	MIPSImage = mips.Image
	// MIPSCore is the built-in processor model.
	MIPSCore = mips.Core
	// Topology is the interconnect geometry.
	Topology = topology.Topology
	// SplashBenchmark names a SPLASH-2-like trace profile.
	SplashBenchmark = splash.Benchmark
	// SplashParams parameterizes trace synthesis.
	SplashParams = splash.Params
	// IdealResult is the congestion-oblivious model output (Fig 8).
	IdealResult = core.IdealResult
)

// Topology kind names.
const (
	TopoLine      = config.TopoLine
	TopoRing      = config.TopoRing
	TopoMesh      = config.TopoMesh
	TopoTorus     = config.TopoTorus
	TopoMeshX1    = config.TopoMeshX1
	TopoMeshX1Y1  = config.TopoMeshX1Y1
	TopoMeshXCube = config.TopoMeshXCube
)

// Routing algorithm names.
const (
	RouteXY       = config.RouteXY
	RouteYX       = config.RouteYX
	RouteO1Turn   = config.RouteO1Turn
	RouteROMM     = config.RouteROMM
	RouteValiant  = config.RouteValiant
	RoutePROM     = config.RoutePROM
	RouteStatic   = config.RouteStatic
	RouteAdaptive = config.RouteAdaptive
)

// VC allocation policy names.
const (
	VCADynamic   = config.VCADynamic
	VCAStaticSet = config.VCAStaticSet
	VCAEDVCA     = config.VCAEDVCA
	VCAFAA       = config.VCAFAA
)

// Synthetic traffic pattern names.
const (
	PatternUniform       = config.PatternUniform
	PatternTranspose     = config.PatternTranspose
	PatternBitComplement = config.PatternBitComplement
	PatternShuffle       = config.PatternShuffle
	PatternTornado       = config.PatternTornado
	PatternNeighbor      = config.PatternNeighbor
	PatternHotspot       = config.PatternHotspot
	PatternH264          = config.PatternH264
)

// SPLASH-2-like benchmark profiles.
const (
	SplashFFT       = splash.FFT
	SplashRadix     = splash.Radix
	SplashWater     = splash.Water
	SplashSwaptions = splash.Swaptions
	SplashOcean     = splash.Ocean
)

// DefaultConfig returns the paper's baseline configuration (Table I):
// 8x8 mesh, XY routing, dynamic VCA, 4 VCs x 4 flits, 8-flit packets,
// cycle-accurate synchronization.
func DefaultConfig() Config { return config.Default() }

// Default1024Config returns the 32x32-mesh (1024-core) configuration.
func Default1024Config() Config { return config.Default1024() }

// DefaultMemoryConfig returns a baseline MSI memory hierarchy.
func DefaultMemoryConfig() *MemoryConfig { return config.DefaultMemory() }

// NewSystem builds a simulation from a configuration.
func NewSystem(cfg Config) (*System, error) { return core.New(cfg) }

// NewTopology builds just the geometry (trace generation, analysis).
func NewTopology(cfg config.TopologyConfig) (*Topology, error) { return topology.New(cfg) }

// AssembleMIPS assembles MIPS source into a loadable image.
func AssembleMIPS(src string) (*MIPSImage, error) { return mips.Assemble(src) }

// GenerateSplashTrace synthesizes a SPLASH-2-like network trace.
func GenerateSplashTrace(b SplashBenchmark, p SplashParams) (*Trace, error) {
	return splash.Generate(b, p)
}

// GenerateSplashMemoryTrace synthesizes the memory-controller-directed
// variant (Fig 11); controllers are node IDs.
func GenerateSplashMemoryTrace(b SplashBenchmark, p SplashParams, controllers []NodeID) (*Trace, error) {
	return splash.GenerateMemory(b, p, controllers)
}

// IdealTrace replays a trace under the congestion-oblivious model (Fig 8).
func IdealTrace(topo *Topology, tr *Trace) IdealResult { return core.IdealTrace(topo, tr) }

// NewThermalGrid builds the RC thermal solver for a W x H die.
func NewThermalGrid(w, h int, cfg config.ThermalConfig) (*ThermalGrid, error) {
	return thermal.NewGrid(w, h, cfg)
}

// Accuracy returns the paper's Fig 6b metric: 100% minus the percentage
// deviation of measured from the cycle-accurate reference.
func Accuracy(measured, reference float64) float64 { return stats.Accuracy(measured, reference) }
