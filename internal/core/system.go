package core

import (
	"sync/atomic"

	"hornet/internal/config"
	"hornet/internal/mem"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/obs"
	"hornet/internal/power"
	"hornet/internal/routing"
	"hornet/internal/sim"
	"hornet/internal/stats"
	"hornet/internal/topology"
	"hornet/internal/trace"
	"hornet/internal/traffic"
)

// System is a fully wired HORNET simulation.
type System struct {
	Config config.Config
	Topo   *topology.Topology
	Power  *power.Model

	tiles      []*Tile
	engine     *sim.Engine
	alg        routing.Algorithm
	clock      uint64            // next cycle to simulate
	patterns   []traffic.Pattern // one per Config.Traffic entry (MachinePlan)
	generators []*traffic.Generator
	injectors  []*trace.Injector

	// Snapshot-visible frontends: the shared-memory fabric, MIPS cores
	// (attach order) and trace-mode memory controllers attached to this
	// system. Snapshot/Restore serialize their state alongside the NoC.
	memFab    *memoryFabric
	mipsCores []*mips.Core
	mipsNodes []noc.NodeID // node of mipsCores[i], same order
	traceMCs  []*mem.TraceController

	// telemetry is the machine-telemetry collector (EnableTelemetry);
	// nil until enabled, in which case the engine's sampler hook is a
	// single nil check.
	telemetry *telemetryCollector
}

// New builds the system Plan works out for cfg: routing and VCA tables,
// routers with the planned ports wired per edge, the power model, and the
// parallel engine. Frontends are attached afterwards (Attach*).
func New(cfg config.Config) (*System, error) {
	p, err := Plan(cfg)
	if err != nil {
		return nil, err
	}
	tables := routing.NewTables(p.Alg)

	n := p.Topo.Nodes()
	s := &System{
		Config:   cfg,
		Topo:     p.Topo,
		Power:    power.New(cfg.Power, n),
		alg:      p.Alg,
		patterns: p.Patterns,
	}

	// Routers and the engine share one in-network flit counter.
	inflight := new(atomic.Int64)
	simTiles := make([]sim.Tile, n)
	s.tiles = make([]*Tile, n)

	for i := 0; i < n; i++ {
		id := noc.NodeID(i)
		st := stats.NewTile()
		rng := sim.NewRNG(cfg.Engine.Seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
		router := noc.NewRouter(noc.RouterParams{
			ID:            id,
			Table:         tables.ForNode(id),
			VCATable:      p.VCA.ForNode(id),
			VCAMode:       p.VCAMode,
			RNG:           rng,
			Stats:         st,
			InFlight:      inflight,
			LocalVCs:      p.InjVCs,
			LocalBufFlits: p.InjBufFlits,
			Ports:         p.Ports[i],
		})
		tile := &Tile{
			ID:         id,
			Router:     router,
			Stats:      st,
			RNG:        rng,
			powerModel: s.Power,
			epoch:      uint64(cfg.Power.EpochCycles),
		}
		router.SetReceiver(tile)
		s.tiles[i] = tile
		simTiles[i] = tile
	}

	// Wire every edge's egress sides: pointers to the peer's ingress
	// buffers plus the shared (possibly bandwidth-adaptive) link.
	for i, e := range p.Topo.Edges() {
		ra, rb := s.tiles[e.A].Router, s.tiles[e.B].Router
		pa, pb := p.EdgePorts[i][0], p.EdgePorts[i][1]
		link := noc.NewLink(cfg.Router.LinkBandwidth, cfg.Router.Bidirectional)
		ra.ConnectEgress(e.B, rb.Ports()[pb].In, link, 0)
		rb.ConnectEgress(e.A, ra.Ports()[pa].In, link, 1)
	}

	s.engine = sim.NewEngine(simTiles, cfg.Engine.Workers, cfg.Engine.SyncPeriod, cfg.Engine.FastForward, inflight)
	return s, nil
}

// Tiles returns the system's tiles.
func (s *System) Tiles() []*Tile { return s.tiles }

// Algorithm returns the routing algorithm in use.
func (s *System) Algorithm() routing.Algorithm { return s.alg }

// MIPSCores returns the MIPS cores attached to this system, in attach
// order. Restored systems expose the cores their own Attach calls built
// (a snapshot rewrites their state, not their identity).
func (s *System) MIPSCores() []*mips.Core { return s.mipsCores }

// Clock returns the next cycle to be simulated.
func (s *System) Clock() uint64 { return s.clock }

// InFlight returns the number of flits currently in the network.
func (s *System) InFlight() int64 { return s.engine.InFlight().Load() }

// Workers returns the engine's effective worker count.
func (s *System) Workers() int { return s.engine.Workers() }

// SetProbe attaches an observability probe to the engine (nil
// detaches); see sim.Engine.SetProbe.
func (s *System) SetProbe(p *obs.SimProbe) { s.engine.SetProbe(p) }

// Run simulates the given number of cycles and returns the engine result.
func (s *System) Run(cycles uint64) sim.RunResult {
	r := s.engine.Run(s.clock, cycles, nil)
	s.clock += r.Cycles + r.SkippedCycles
	return r
}

// RunUntil simulates until stop returns true (checked at synchronization
// points) or maxCycles elapse.
func (s *System) RunUntil(maxCycles uint64, stop func(cycle uint64) bool) sim.RunResult {
	r := s.engine.Run(s.clock, maxCycles, stop)
	s.clock += r.Cycles + r.SkippedCycles
	return r
}

// RunUntilResumed is RunUntil for the continuation of an earlier chunk
// of the same run (checkpoint-autosave cadence, restored snapshots): a
// fast-forwarding engine may jump over leading idle cycles before
// executing anything, keeping chunked execution byte-identical to an
// uninterrupted run.
func (s *System) RunUntilResumed(maxCycles uint64, stop func(cycle uint64) bool) sim.RunResult {
	r := s.engine.RunResumed(s.clock, maxCycles, stop)
	s.clock += r.Cycles + r.SkippedCycles
	return r
}

// RunWarmup runs the configured warmup and clears statistics after it
// (paper Table I: 200k warmup cycles for synthetic traffic).
func (s *System) RunWarmup() sim.RunResult {
	r := s.Run(uint64(s.Config.WarmupCycles))
	s.ResetStats()
	return r
}

// ResetStats zeroes all per-tile statistics (warmup boundary). Power
// epoch baselines survive via the model's cumulative-counter deltas.
func (s *System) ResetStats() {
	for _, t := range s.tiles {
		t.Stats.Reset()
	}
}

// Summary aggregates statistics across tiles.
func (s *System) Summary() stats.Summary {
	ts := make([]*stats.Tile, len(s.tiles))
	for i, t := range s.tiles {
		ts[i] = t.Stats
	}
	return stats.Aggregate(ts)
}
