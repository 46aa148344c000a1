package core

import (
	"fmt"

	"hornet/internal/config"
	"hornet/internal/mem"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/trace"
	"hornet/internal/traffic"
	"hornet/internal/workloads"
)

// AttachSyntheticTraffic puts a generator of every traffic entry on
// every node, the entry's generators sharing the pattern Plan made of it.
// The error is always nil: Plan has checked every pattern.
func (s *System) AttachSyntheticTraffic() error {
	for i, tc := range s.Config.Traffic {
		for _, t := range s.tiles {
			gen := traffic.NewGenerator(t.ID, s.patterns[i], tc, s.Config.AvgPacketFlits, t.RNG)
			tile := t
			s.generators = append(s.generators, gen)
			t.AddComponent(componentFunc{
				tick: func(cycle uint64) { gen.Tick(cycle, tile.Router.OfferPacket) },
				next: gen.NextEvent,
			})
		}
	}
	return nil
}

// StopTraffic halts all synthetic generators so the network can drain.
func (s *System) StopTraffic() {
	for _, g := range s.generators {
		g.Stop()
	}
}

// AttachTrace installs per-node trace injectors replaying tr.
func (s *System) AttachTrace(tr *trace.Trace) {
	for _, t := range s.tiles {
		inj := trace.NewInjector(t.ID, tr, 0)
		s.injectors = append(s.injectors, inj)
		tile := t
		t.AddComponent(componentFunc{
			tick: func(cycle uint64) { inj.Tick(cycle, tile.Router.OfferPacket) },
			next: inj.NextEvent,
		})
	}
}

// TraceDone reports whether all trace injectors have replayed everything
// and the network has drained.
func (s *System) TraceDone() bool {
	for _, inj := range s.injectors {
		if inj.Pending() > 0 {
			return false
		}
	}
	return s.drained()
}

// drained reports whether the network holds no flit and no router has a
// packet waiting to inject: the half every completion predicate shares.
func (s *System) drained() bool {
	if s.InFlight() != 0 {
		return false
	}
	for _, t := range s.tiles {
		if t.Router.PendingPackets() > 0 {
			return false
		}
	}
	return true
}

// AttachTraceControllers places trace-mode memory controllers (Fig 11) at
// the given nodes: each answers class-1 request packets with
// responseFlits-sized responses after the DRAM latency.
func (s *System) AttachTraceControllers(nodes []noc.NodeID, latency, responseFlits int) {
	for _, n := range nodes {
		t := s.tiles[n]
		tc := mem.NewTraceController(n, latency, responseFlits)
		tc.Bind(t.Router.OfferPacket)
		t.extra = tc
		s.traceMCs = append(s.traceMCs, tc)
		t.AddComponent(componentFunc{
			tick: func(cycle uint64) { tc.Tick(cycle, nil) },
			next: tc.NextEvent,
		})
	}
}

// memoryFabric holds the per-tile memory components after AttachMemory.
type memoryFabric struct {
	am      *mem.AddressMap
	bridges []*mem.Bridge
	dirs    []*mem.Directory
	mcs     map[noc.NodeID]*mem.Controller
}

// AttachMemory wires the shared-memory subsystem on every tile: a bridge,
// a directory slice, memory controllers at the configured nodes, and — in
// MSI mode — per-tile L1 caches (NUCA mode creates remote-access ports on
// demand via Ports). The tile ticks all of them through its bridge.
// Returns an opaque handle used by processor attachers.
func (s *System) AttachMemory(mc config.MemoryConfig) (*memoryFabric, error) {
	if len(mc.Controllers) == 0 {
		return nil, fmt.Errorf("core: memory needs at least one controller node")
	}
	am := &mem.AddressMap{LineBytes: mc.LineBytes, Nodes: s.Topo.Nodes()}
	for _, c := range mc.Controllers {
		am.Controllers = append(am.Controllers, noc.NodeID(c))
	}
	f := &memoryFabric{am: am, mcs: make(map[noc.NodeID]*mem.Controller)}
	for _, t := range s.tiles {
		tile := t
		b := mem.NewBridge(t.ID, tile.Router.OfferPacket)
		d := mem.NewDirectory(t.ID, am, b)
		b.Dir = d
		t.bridge = b
		f.bridges = append(f.bridges, b)
		f.dirs = append(f.dirs, d)
	}
	for _, cn := range am.Controllers {
		t := s.tiles[cn]
		ctl := mem.NewController(cn, mc.MCLatencyCyc, mc.MCQueueDepth, t.bridge)
		t.bridge.MC = ctl
		f.mcs[cn] = ctl
	}
	s.memFab = f
	return f, nil
}

// Preload writes bytes into the authoritative home slices (program and
// data images before the run starts). It goes through Store.Preload so
// the content enters each store's checkpoint baseline: snapshots encode
// the stores as deltas against it.
func (f *memoryFabric) Preload(addr uint32, data []byte) {
	for len(data) > 0 {
		home := f.am.Home(addr)
		off := f.am.LineOffset(addr)
		n := f.am.LineBytes - off
		if n > len(data) {
			n = len(data)
		}
		f.dirs[home].Store().Preload(addr, data[:n])
		data = data[n:]
		addr += uint32(n)
	}
}

// ReadBack reads bytes from the home slices (result verification). Only
// meaningful when caches have been flushed or were never enabled.
func (f *memoryFabric) ReadBack(addr uint32, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		a := addr + uint32(len(out))
		home := f.am.Home(a)
		line := f.dirs[home].Store().Line(f.am.LineAddr(a))
		off := f.am.LineOffset(a)
		take := len(line) - off
		if take > n-len(out) {
			take = n - len(out)
		}
		out = append(out, line[off:off+take]...)
	}
	return out
}

// PortFor creates a processor-side memory port on a tile: an MSI L1 or a
// NUCA remote-access port, per the config protocol.
func (s *System) PortFor(f *memoryFabric, n noc.NodeID, mc config.MemoryConfig) mips.DataMem {
	t := s.tiles[n]
	if mc.Protocol == "nuca" {
		p := mem.NewNucaPort(n, f.am, t.bridge)
		t.bridge.Nuca = p
		return p
	}
	l1 := mem.NewL1(n, f.am, mc.L1Sets, mc.L1Ways, mc.L1LatencyCyc, t.bridge)
	t.bridge.L1 = l1
	return l1
}

// setCore makes c the tile's core, ticked after the memory side and
// before the generic components.
func (t *Tile) setCore(c *mips.Core, np *mips.NetPort) {
	if t.core != nil {
		panic(fmt.Sprintf("core: tile %d already has a MIPS core", t.ID))
	}
	t.core, t.net = c, np
}

// AttachMIPS places a MIPS core on every listed node, all running the
// same program image, with the MPI-style network port (private memory).
// Returns the cores in node order.
func (s *System) AttachMIPS(nodes []noc.NodeID, img *mips.Image) []*mips.Core {
	cores := make([]*mips.Core, 0, len(nodes))
	for _, n := range nodes {
		t := s.tiles[n]
		np := mips.NewNetPort(n, t.Router.OfferPacket, t.Router.PendingPackets)
		c := mips.NewCore(n, len(nodes), img, nil, np)
		t.setCore(c, np)
		cores = append(cores, c)
	}
	s.mipsCores = append(s.mipsCores, cores...)
	s.mipsNodes = append(s.mipsNodes, nodes...)
	return cores
}

// AttachMIPSShared places MIPS cores whose data accesses go through the
// shared-memory fabric (MSI L1 or NUCA port per the memory config).
func (s *System) AttachMIPSShared(nodes []noc.NodeID, img *mips.Image, f *memoryFabric, mc config.MemoryConfig) []*mips.Core {
	cores := make([]*mips.Core, 0, len(nodes))
	for _, n := range nodes {
		t := s.tiles[n]
		port := s.PortFor(f, n, mc)
		np := mips.NewNetPort(n, t.Router.OfferPacket, t.Router.PendingPackets)
		c := mips.NewCore(n, len(nodes), img, port, np)
		t.setCore(c, np)
		cores = append(cores, c)
	}
	s.mipsCores = append(s.mipsCores, cores...)
	s.mipsNodes = append(s.mipsNodes, nodes...)
	return cores
}

// AttachWorkload places a bound kernel's MIPS cores on their nodes, over
// the shared-memory fabric of the configured memory when the kernel
// shares memory and with the MPI-style network port when it does not.
func (s *System) AttachWorkload(w *workloads.Run) error {
	img, err := mips.Assemble(w.Source())
	if err != nil {
		return err
	}
	var nodes []noc.NodeID
	for _, n := range w.Cores() {
		nodes = append(nodes, noc.NodeID(n))
	}
	if !w.Shared {
		s.AttachMIPS(nodes, img)
		return nil
	}
	fab, err := s.AttachMemory(*s.Config.Memory)
	if err != nil {
		return err
	}
	s.AttachMIPSShared(nodes, img, fab, *s.Config.Memory)
	return nil
}

// CoresHalted reports whether every given core has exited and its DMA
// drained, and the network is empty — the application-run stop condition.
func (s *System) CoresHalted(cores []*mips.Core) func(cycle uint64) bool {
	return func(cycle uint64) bool {
		for _, c := range cores {
			if !c.Halted() || !c.Net().Idle() {
				return false
			}
		}
		return s.drained()
	}
}
