package core

import (
	"sync"

	"hornet/internal/noc"
	"hornet/internal/obs"
)

// telemetryCollector samples the machine through a run's stop predicate:
// at a sync point every other worker is parked at the barrier, so the
// plain per-tile counters and the atomic VC occupancy reads are coherent.
// It publishes an obs.TelemetrySnapshot under its own lock; consumers (the
// serve layer's wall-clock pump) read the latest sample without ever
// touching simulation state.
type telemetryCollector struct {
	sys   *System
	every uint64 // sampling cadence in simulated cycles

	mu     sync.Mutex
	latest obs.TelemetrySnapshot
	seq    uint64
}

// hook returns the stop predicate of a run starting at the system's clock:
// at each sync point whose cycle reaches the next multiple of every it
// samples the machine, then asks stop (nil: never stop). The cadence is
// absolute, so a run split into chunks samples at the cycles the
// uninterrupted run would; a jump over several multiples samples once, at
// the first sync point past it.
func (c *telemetryCollector) hook(stop func(cycle uint64) bool) func(cycle uint64) bool {
	s := c.sys
	next := (s.clock/c.every + 1) * c.every
	return func(cycle uint64) bool {
		if cycle+1 >= next {
			c.sample(cycle+1, s.skipped+s.engine.Skipped())
			next = ((cycle+1)/c.every + 1) * c.every
		}
		return stop != nil && stop(cycle)
	}
}

// sampleEnd samples the system's state after a run, unless the run's
// last sync point already did: the latest sample then agrees with the
// clock and the run's final statistics.
func (c *telemetryCollector) sampleEnd() {
	s := c.sys
	c.mu.Lock()
	done := c.seq > 0 && c.latest.Cycle == s.clock
	c.mu.Unlock()
	if !done {
		c.sample(s.clock, s.skipped)
	}
}

// sample builds and publishes a snapshot of the whole machine at cycle
// with skipped cycles fast-forwarded so far.
func (c *telemetryCollector) sample(cycle, skipped uint64) {
	s := c.sys
	snap := obs.TelemetrySnapshot{
		Cycle:         cycle,
		SkippedCycles: skipped,
		Tiles:         make([]obs.TileTelemetry, 0, len(s.tiles)),
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
	c.latest = snap
	c.seq++
	c.mu.Unlock()
}

// EnableTelemetry samples the machine every `every` cycles at sync
// points, plus once at the end of every run. Idempotent: re-enabling
// keeps accumulated state and adjusts the cadence. A system that never
// calls this runs with its stop predicates untouched.
func (s *System) EnableTelemetry(every uint64) {
	if s.telemetry == nil {
		s.telemetry = &telemetryCollector{sys: s}
	}
	s.telemetry.every = max(every, 1)
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
