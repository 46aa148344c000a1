package noc_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"hornet/internal/config"
	"hornet/internal/noc"
	"hornet/internal/routing"
	"hornet/internal/sim"
	"hornet/internal/snapshot"
	"hornet/internal/stats"
	"hornet/internal/topology"
	"hornet/internal/traffic"
	"hornet/internal/vca"
)

// countedTable is a node's routing-table view that counts the lookups its
// router makes.
type countedTable struct {
	noc.RouteTable
	lookups *int
}

func (c countedTable) Lookup(prev noc.NodeID, flow noc.FlowID) *noc.RouteLine {
	*c.lookups++
	return c.RouteTable.Lookup(prev, flow)
}

// meshMachine is the 8x8 uniform-traffic machine of the mesh8-serial
// workload, wired by hand the way core.New wires it, with every router's
// table view counted.
type meshMachine struct {
	routers []*noc.Router
	links   []*noc.Link
	gens    []*traffic.Generator
	lookups int
}

func newMeshMachine(t *testing.T, topo *topology.Topology, gens []*traffic.Generator) *meshMachine {
	t.Helper()
	alg := routing.NewXY(topo)
	tables := routing.NewTables(alg)
	vcas, mode, err := vca.New(alg, config.VCADynamic)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.Nodes()
	ports := make([][]noc.PortParams, n)
	edgePorts := make([][2]int, len(topo.Edges()))
	for i, e := range topo.Edges() {
		ports[e.A] = append(ports[e.A], noc.PortParams{Neighbor: e.B, VCs: 4, BufFlits: 4})
		ports[e.B] = append(ports[e.B], noc.PortParams{Neighbor: e.A, VCs: 4, BufFlits: 4})
		edgePorts[i] = [2]int{len(ports[e.A]), len(ports[e.B])}
	}
	m := &meshMachine{gens: gens}
	inflight := new(atomic.Int64)
	for i := 0; i < n; i++ {
		id := noc.NodeID(i)
		m.routers = append(m.routers, noc.NewRouter(noc.RouterParams{
			ID: id, Table: countedTable{tables.ForNode(id), &m.lookups}, VCATable: vcas.ForNode(id), VCAMode: mode,
			RNG: sim.NewRNG(uint64(i) + 1), Stats: stats.NewTile(), InFlight: inflight,
			LocalVCs: 4, LocalBufFlits: 4, Ports: ports[i],
		}))
	}
	for i, e := range topo.Edges() {
		a, b := m.routers[e.A], m.routers[e.B]
		link := noc.NewLink(1, false)
		a.ConnectEgress(e.B, b.Ports()[edgePorts[i][1]].In, link, 0)
		b.ConnectEgress(e.A, a.Ports()[edgePorts[i][0]].In, link, 1)
		m.links = append(m.links, link)
	}
	return m
}

func (m *meshMachine) run(from, to uint64) {
	for c := from; c < to; c++ {
		for i, r := range m.routers {
			m.gens[i].Tick(c, r.OfferPacket)
			r.PhaseTransfer(c)
		}
		for _, r := range m.routers {
			r.PhaseCommit(c)
		}
	}
}

// totals sums packets injected and delivered and flits resident over the
// routers.
func (m *meshMachine) totals() (injected, delivered, resident uint64) {
	for _, r := range m.routers {
		injected += r.Stats().PacketsInjected
		delivered += r.Stats().PacketsDelivered
		resident += uint64(r.ResidentFlits())
	}
	return injected, delivered, resident
}

// snapshotBytes saves every router and link, the way a checkpoint does.
func (m *meshMachine) snapshotBytes(t *testing.T, clock uint64) []byte {
	t.Helper()
	snap := snapshot.New("mesh", clock)
	for i, r := range m.routers {
		if err := r.SaveState(snap.Section(fmt.Sprintf("router-%d", i)), clock); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range m.links {
		l.SaveState(snap.Section(fmt.Sprintf("link-%d", i)))
	}
	b, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (m *meshMachine) restoreBytes(t *testing.T, b []byte) {
	t.Helper()
	snap, err := snapshot.DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range m.routers {
		rd, err := snap.Open(fmt.Sprintf("router-%d", i))
		if err == nil {
			err = r.LoadState(rd)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range m.links {
		rd, err := snap.Open(fmt.Sprintf("link-%d", i))
		if err == nil {
			err = l.LoadState(rd)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLookaheadConsultsTableOncePerPacket is the mechanism guard of
// lookahead routing: on the 8x8 uniform machine, a router looks a packet's
// line up only where the flit carries none — at its first hop — so the
// table views are consulted at most once per injected packet (6.75 times
// per packet when every hop looked up). The same holds after a restore,
// whose flits carry no lines: each packet then in the network looks up once
// more, and no more. A window's bound is exact: the packets injected in it,
// plus the flits resident at its start (every packet the window inherits
// has one there, or is the one packet streaming into its source).
func TestLookaheadConsultsTableOncePerPacket(t *testing.T) {
	topo, err := topology.New(config.TopologyConfig{Kind: config.TopoMesh, Width: 8, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	gens := make([]*traffic.Generator, topo.Nodes())
	for i := range gens {
		tc := config.TrafficConfig{Pattern: config.PatternUniform, InjectionRate: 0.05}
		if gens[i], err = traffic.NewGenerator(noc.NodeID(i), tc, topo, 8, sim.NewRNG(uint64(i)+100)); err != nil {
			t.Fatal(err)
		}
	}
	m := newMeshMachine(t, topo, gens)
	window := func(m *meshMachine, what string, from, to uint64) {
		t.Helper()
		injected0, delivered0, resident := m.totals()
		lookups0 := m.lookups
		m.run(from, to)
		injected, delivered, _ := m.totals()
		lookups := m.lookups - lookups0
		packets := injected - injected0
		t.Logf("%s: %d lookups for %d packets injected (%.2f per packet), %d flits resident at the start",
			what, lookups, packets, float64(lookups)/float64(packets), resident)
		if packets == 0 || delivered == delivered0 {
			t.Fatalf("%s: %d packets injected and %d delivered: the window measured an idle mesh", what, packets, delivered-delivered0)
		}
		if bound := packets + resident + uint64(len(m.routers)); uint64(lookups) > bound {
			t.Fatalf("%s: %d table lookups, more than the %d packets injected plus %d flits resident and %d streaming: some hop looked up a line the flit should carry",
				what, lookups, packets, resident, len(m.routers))
		}
	}
	const warm, span = 5_000, 3_000
	m.run(0, warm)
	window(m, "warm", warm, warm+span)

	restored := newMeshMachine(t, topo, gens)
	restored.restoreBytes(t, m.snapshotBytes(t, warm+span))
	window(restored, "after a restore", warm+span, warm+2*span)
}
