package core

import (
	"sync"

	"hornet/internal/noc"
	"hornet/internal/obs"
)

// telemetryCollector implements sim.Sampler: at engine sync points it
// walks the system's tile span — every worker is parked at the barrier,
// so the plain per-tile counters and the atomic VC occupancy reads are
// coherent — and publishes an obs.TelemetrySnapshot under its own lock.
// Consumers (the serve layer's wall-clock pump) read the latest sample
// without ever touching simulation state.
type telemetryCollector struct {
	sys *System

	mu     sync.Mutex
	latest obs.TelemetrySnapshot
	seq    uint64

	// Sample receives the run-local skipped count, which resets between
	// chunked runs; fold it into a cumulative total by banking the
	// previous run's final value whenever the counter shrinks.
	skippedBase uint64
	lastRunSkip uint64
}

// Sample builds and publishes a snapshot of the whole machine.
func (c *telemetryCollector) Sample(cycle, runSkipped uint64) {
	s := c.sys
	snap := obs.TelemetrySnapshot{
		Cycle:  cycle,
		TileHi: len(s.tiles),
		Tiles:  make([]obs.TileTelemetry, 0, len(s.tiles)),
	}
	for i, t := range s.tiles {
		inj, del, avg := t.Stats.FlitSample()
		snap.Tiles = append(snap.Tiles, obs.TileTelemetry{
			Tile:           i,
			FlitsInjected:  inj,
			FlitsDelivered: del,
			AvgFlitLatency: avg,
		})
		for _, p := range t.Router.Ports() {
			if p.Neighbor == noc.InvalidNode {
				continue // CPU injection port, not a mesh link
			}
			used, capacity := p.InOccupancy()
			snap.Links = append(snap.Links, obs.LinkTelemetry{
				From:      int(p.Neighbor),
				To:        i,
				Occupancy: used,
				Capacity:  capacity,
			})
		}
	}

	c.mu.Lock()
	if runSkipped < c.lastRunSkip {
		c.skippedBase += c.lastRunSkip
	}
	c.lastRunSkip = runSkipped
	snap.SkippedCycles = c.skippedBase + runSkipped
	c.latest = snap
	c.seq++
	c.mu.Unlock()
}

// EnableTelemetry attaches a machine-telemetry collector to the engine,
// sampling every `every` cycles at sync points (plus the final sync
// point of every run). Idempotent: re-enabling keeps accumulated state
// and adjusts the cadence. Costs nothing until the first sample; a
// system that never calls this keeps the engine's nil-sampler fast
// path.
func (s *System) EnableTelemetry(every uint64) {
	if s.telemetry == nil {
		s.telemetry = &telemetryCollector{sys: s}
	}
	s.engine.SetSampler(s.telemetry, every)
}

// Telemetry returns the latest machine-telemetry sample plus a
// sequence number incremented once per sample; 0 means no sample has
// been taken yet (or telemetry is not enabled).
func (s *System) Telemetry() (obs.TelemetrySnapshot, uint64) {
	c := s.telemetry
	if c == nil {
		return obs.TelemetrySnapshot{}, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latest, c.seq
}
