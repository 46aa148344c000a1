// Package core assembles HORNET simulations: it builds the topology,
// routing and VCA tables, routers, tiles and the parallel engine from a
// config.Config, attaches frontends (synthetic traffic, trace injectors,
// MIPS cores, Pin-style instrumented threads, memory subsystem), and runs
// them with warmup/measurement phases, statistics aggregation, and power
// and thermal sampling.
package core

import (
	"hornet/internal/mem"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/power"
	"hornet/internal/sim"
	"hornet/internal/stats"
)

// Component is anything stepped once per cycle on a tile through the
// generic list: traffic generators, trace injectors, trace-mode memory
// controllers, Pin-style frontends. Implementations are adapted at attach
// time. The memory side (bridge) and the MIPS core are not components:
// the tile calls them directly.
type Component interface {
	Tick(cycle uint64)
	NextEvent(now uint64) uint64
}

// componentFunc adapts closures to Component.
type componentFunc struct {
	tick func(cycle uint64)
	next func(now uint64) uint64
}

func (c componentFunc) Tick(cycle uint64) { c.tick(cycle) }

func (c componentFunc) NextEvent(now uint64) uint64 {
	if c.next == nil {
		return sim.NoEvent
	}
	return c.next(now)
}

// Tile is one unit of parallel simulation: a router plus the components
// attached to the same node. It implements sim.Tile.
type Tile struct {
	ID         noc.NodeID
	Router     *noc.Router
	Stats      *stats.Tile
	RNG        *sim.RNG
	components []Component

	bridge *mem.Bridge // the memory side: directory slice, controller, L1
	core   *mips.Core
	net    *mips.NetPort
	extra  noc.Receiver

	powerModel *power.Model
	epoch      uint64
	// nextSample is the next multiple of epoch the power model is sampled
	// at; PhaseCommit derives it from the cycle whenever it is not within
	// one epoch ahead (first use, or a fast-forward jump over it), so a
	// restored or resumed run samples at the cycles an uninterrupted one
	// does, and the common cycle pays a compare instead of a division.
	nextSample uint64
}

// AddComponent appends a per-cycle component (build time only).
func (t *Tile) AddComponent(c Component) { t.components = append(t.components, c) }

// PhaseTransfer implements sim.Tile: the memory side, then the core that
// polls it, then the generic components, then the router.
func (t *Tile) PhaseTransfer(cycle uint64) {
	if t.bridge != nil {
		t.bridge.Tick(cycle)
	}
	if t.core != nil {
		t.core.Tick(cycle)
	}
	for _, c := range t.components {
		c.Tick(cycle)
	}
	t.Router.PhaseTransfer(cycle)
}

// PhaseCommit implements sim.Tile.
func (t *Tile) PhaseCommit(cycle uint64) {
	t.Router.PhaseCommit(cycle)
	if t.powerModel == nil {
		return
	}
	end := cycle + 1
	if t.nextSample-end >= t.epoch { // also when end is past it: the difference wraps
		t.nextSample = end + (t.epoch-end%t.epoch)%t.epoch
	}
	if end == t.nextSample {
		t.nextSample += t.epoch
		st := t.Stats
		t.powerModel.Sample(int(t.ID), power.EventCounts{
			BufReads:     st.BufReads,
			BufWrites:    st.BufWrites,
			XbarTransits: st.XbarTransits,
			LinkTransits: st.LinkTransits,
			ArbEvents:    st.ArbEvents,
		}, cycle+1)
	}
}

// NextEvent implements sim.Tile.
func (t *Tile) NextEvent(now uint64) uint64 {
	earliest := t.Router.NextEvent(now)
	if t.core != nil {
		earliest = min(earliest, t.core.NextEvent(now))
	}
	for _, c := range t.components {
		if ev := c.NextEvent(now); ev < earliest {
			earliest = ev
		}
	}
	return earliest
}

// ReceivePacket implements noc.Receiver: protocol messages go to the
// memory bridge, MPI-style user packets to the core's network port, and
// anything else to the optional extra receiver (e.g. a trace-mode memory
// controller). Synthetic traffic needs no receiver: the router already
// folds its statistics.
func (t *Tile) ReceivePacket(p noc.Packet, cycle uint64) {
	if _, ok := p.Payload.(*mem.Message); ok && t.bridge != nil {
		t.bridge.ReceivePacket(p, cycle)
		return
	}
	if p.Flow.Class() == mips.ClassUser && t.net != nil {
		t.net.ReceivePacket(p, cycle)
		return
	}
	if t.extra != nil {
		t.extra.ReceivePacket(p, cycle)
	}
}
