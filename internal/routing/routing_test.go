package routing

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"hornet/internal/config"
	"hornet/internal/noc"
	"hornet/internal/sim"
	"hornet/internal/topology"
)

func mesh8(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.New(config.TopologyConfig{Kind: config.TopoMesh, Width: 8, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func mesh3(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New(config.TopologyConfig{Kind: config.TopoMesh, Width: 3, Height: 3})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestXYPathProperties(t *testing.T) {
	topo := mesh8(t)
	if err := quick.Check(func(aRaw, bRaw uint8) bool {
		a := noc.NodeID(aRaw % 64)
		b := noc.NodeID(bRaw % 64)
		p := new(builder).path(topo, a, b, xyNext)
		if p[0] != a || p[len(p)-1] != b {
			return false
		}
		// Minimal length and neighbor-connected.
		if len(p)-1 != topo.ManhattanDistance(a, b) {
			return false
		}
		for i := 0; i < len(p)-1; i++ {
			if topo.ManhattanDistance(p[i], p[i+1]) != 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnXYPathConsistent(t *testing.T) {
	topo := mesh8(t)
	if err := quick.Check(func(aRaw, bRaw uint8) bool {
		a := noc.NodeID(aRaw % 64)
		b := noc.NodeID(bRaw % 64)
		path := new(builder).path(topo, a, b, xyNext)
		onPath := map[noc.NodeID]bool{}
		for _, v := range path {
			onPath[v] = true
		}
		for v := noc.NodeID(0); v < 64; v++ {
			if onXYPath(topo, a, b, v) != onPath[v] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// walkFlow follows a flow through the tables from src, sampling weighted
// entries with the rng, and returns the hop count to ejection.
func walkFlow(t *testing.T, tables *Tables, topo *topology.Topology, f noc.FlowID, rng *sim.RNG) int {
	t.Helper()
	node := f.Src()
	prev := node
	flow := f
	for hops := 0; hops < 1000; hops++ {
		entries := tables.Lookup(node, prev, flow)
		if len(entries) == 0 {
			t.Fatalf("no route at node %d prev %d flow %v", node, prev, flow)
		}
		w := make([]float64, len(entries))
		for i, e := range entries {
			w[i] = e.Weight
		}
		e := entries[rng.Pick(w)]
		if e.Next == node {
			if node != f.Dst() {
				t.Fatalf("flow %v ejected at %d, want %d", f, node, f.Dst())
			}
			if got := e.NextFlow(flow); got != f.Base() {
				t.Fatalf("flow %v ejected as %v, want base restored", f, got)
			}
			return hops
		}
		// The next hop must be a real neighbour.
		ok := false
		for _, n := range topo.Neighbors(node) {
			if n == e.Next {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("flow %v at %d routed to non-neighbour %d", flow, node, e.Next)
		}
		prev, node, flow = node, e.Next, e.NextFlow(flow)
	}
	t.Fatalf("flow %v did not terminate", f)
	return -1
}

func TestAllAlgorithmsDeliverEveryFlow(t *testing.T) {
	topo := mesh8(t)
	algs := []Algorithm{
		NewXY(topo), NewYX(topo), NewO1Turn(topo),
		NewROMM(topo), NewValiant(topo), NewPROM(topo), NewWestFirst(topo),
	}
	rng := sim.NewRNG(77)
	for _, alg := range algs {
		tables := NewTables(alg)
		for src := noc.NodeID(0); src < 64; src += 7 {
			for dst := noc.NodeID(0); dst < 64; dst += 5 {
				if src == dst {
					continue
				}
				f := noc.MakeFlow(src, dst, 0)
				// Sample several walks for the probabilistic schemes.
				for k := 0; k < 4; k++ {
					walkFlow(t, tables, topo, f, rng)
				}
			}
		}
	}
}

func TestMinimalAlgorithmsTakeMinimalPaths(t *testing.T) {
	topo := mesh8(t)
	rng := sim.NewRNG(13)
	for _, alg := range []Algorithm{NewXY(topo), NewYX(topo), NewO1Turn(topo), NewROMM(topo), NewPROM(topo), NewWestFirst(topo)} {
		tables := NewTables(alg)
		for _, pair := range [][2]noc.NodeID{{0, 63}, {7, 56}, {12, 50}, {33, 38}} {
			f := noc.MakeFlow(pair[0], pair[1], 0)
			min := topo.ManhattanDistance(pair[0], pair[1])
			for k := 0; k < 8; k++ {
				if hops := walkFlow(t, tables, topo, f, rng); hops != min {
					t.Fatalf("%s: flow %v took %d hops, minimal is %d", alg.Name(), f, hops, min)
				}
			}
		}
	}
}

func TestValiantPathsMayBeNonMinimal(t *testing.T) {
	topo := mesh8(t)
	tables := NewTables(NewValiant(topo))
	rng := sim.NewRNG(5)
	f := noc.MakeFlow(0, 1, 0)
	longer := false
	for k := 0; k < 64; k++ {
		if walkFlow(t, tables, topo, f, rng) > 1 {
			longer = true
			break
		}
	}
	if !longer {
		t.Fatal("valiant never used a non-minimal path for adjacent nodes")
	}
}

// TestROMMPaperExample replays the paper's §II-A2 worked example on a 3x3
// mesh: for a flow 6 -> 2, the table at node 4 for packets arriving from
// node 7 offers node 1 (no rename) and node 5 (renamed) at equal weight,
// and packets arriving from node 3 continue to node 5 renamed.
func TestROMMPaperExample(t *testing.T) {
	topo := mesh3(t)
	// The paper's node numbering has node 0 top-left, row-major; ours
	// matches (node 6 bottom-left with y growing downward is a mirror,
	// but the combinatorics are identical under the relabeling y' = 2-y:
	// paper's 6->2 is our 0->8's mirror; use src=6, dst=2 with our
	// coordinates: 6=(0,2), 2=(2,0), intermediate rectangle = whole mesh).
	tables := NewTables(NewROMM(topo))
	f := noc.MakeFlow(6, 2, 0)

	entries := tables.Lookup(4, 7, f)
	if len(entries) != 2 {
		t.Fatalf("node 4 from 7: %d entries, want 2: %v", len(entries), entries)
	}
	var toward1, toward5 *noc.RouteEntry
	for i := range entries {
		switch entries[i].Next {
		case 1:
			toward1 = &entries[i]
		case 5:
			toward5 = &entries[i]
		}
	}
	if toward1 == nil || toward5 == nil {
		t.Fatalf("node 4 from 7 entries: %v, want next hops 1 and 5", entries)
	}
	if toward1.Weight != toward5.Weight {
		t.Fatalf("weights differ: %v vs %v (paper: equal probability)", toward1.Weight, toward5.Weight)
	}
	if toward1.Phase2 {
		t.Fatal("continuing toward intermediate 1 must not rename")
	}
	if !toward5.Phase2 {
		t.Fatal("passing the intermediate at 4 must rename the flow")
	}

	// Arriving at 4 from 3 means the intermediate hop has been passed:
	// the only continuation is node 5 under the renamed flow.
	f2 := f.WithPhase2()
	entries = tables.Lookup(4, 3, f2)
	if len(entries) != 1 || entries[0].Next != 5 {
		t.Fatalf("node 4 from 3 (phase 2): %v, want single entry toward 5", entries)
	}
}

func TestO1TurnSourceSplit(t *testing.T) {
	topo := mesh3(t)
	tables := NewTables(NewO1Turn(topo))
	f := noc.MakeFlow(6, 2, 0)
	entries := tables.Lookup(6, 6, f)
	if len(entries) != 2 {
		t.Fatalf("o1turn source entries: %v, want XY + YX options", entries)
	}
	if entries[0].Weight != entries[1].Weight {
		t.Fatal("o1turn subroutes must be equiprobable")
	}
	// Destination has two incoming table lines (from 1 and from 5).
	if len(tables.Lookup(2, 1, f)) != 1 || len(tables.Lookup(2, 5, f)) != 1 {
		t.Fatal("o1turn destination entries missing")
	}
}

func TestPROMWeightsCountPaths(t *testing.T) {
	topo := mesh3(t)
	tables := NewTables(NewPROM(topo))
	// Flow 0 -> 8 (corner to corner): at the source, going right leaves a
	// 1x2 remainder (3 paths... C(3,1)=3) and going down leaves C(3,1)=3:
	// equal weights; at node 1 (from 0), right leads to C(2,0)=1 x ... the
	// invariant tested: every minimal path is equally likely, so the two
	// productive hops at the source have equal weight.
	f := noc.MakeFlow(0, 8, 0)
	entries := tables.Lookup(0, 0, f)
	if len(entries) != 2 {
		t.Fatalf("PROM source entries: %v", entries)
	}
	if entries[0].Weight != entries[1].Weight {
		t.Fatalf("PROM corner-to-corner source weights differ: %v", entries)
	}
}

func TestWestFirstNeverTurnsIntoWest(t *testing.T) {
	topo := mesh8(t)
	alg := NewWestFirst(topo)
	tables := NewTables(alg)
	// Destination strictly west: the only option anywhere en route is west.
	f := noc.MakeFlow(7, 0, 0) // (7,0) -> (0,0)
	entries := tables.Lookup(7, 7, f)
	if len(entries) != 1 || entries[0].Next != 6 {
		t.Fatalf("west-bound flow offered %v, want only west", entries)
	}
}

func TestTorusDatelineRenaming(t *testing.T) {
	topo, err := topology.New(config.TopologyConfig{Kind: config.TopoTorus, Width: 4, Height: 4})
	if err != nil {
		t.Fatal(err)
	}
	tables := NewTables(NewXY(topo))
	rng := sim.NewRNG(9)
	// Flow 0 -> 3 goes the short way across the X wrap edge (1 hop).
	f := noc.MakeFlow(0, 3, 0)
	if hops := walkFlow(t, tables, topo, f, rng); hops != 1 {
		t.Fatalf("wraparound flow took %d hops, want 1", hops)
	}
	entries := tables.Lookup(0, 0, f)
	if len(entries) != 1 {
		t.Fatalf("source entries: %v", entries)
	}
	if !entries[0].Phase2 {
		t.Fatal("crossing the dateline must rename the flow")
	}
}

// xyPathSet gives every flow between distinct nodes its XY path, a path
// set for NewStatic.
func xyPathSet(topo *topology.Topology, flows []noc.FlowID) [][]int {
	var out [][]int
	for _, f := range flows {
		if f.Src() == f.Dst() {
			continue
		}
		var p []int
		for _, n := range new(builder).path(topo, f.Src(), f.Dst(), xyNext) {
			p = append(p, int(n))
		}
		out = append(out, p)
	}
	return out
}

// linkCase is one algorithm on one topology, with the flows to check.
type linkCase struct {
	name  string
	alg   Algorithm
	topo  *topology.Topology
	flows []noc.FlowID
}

func linkCases(t *testing.T) []linkCase {
	t.Helper()
	build := func(cfg config.TopologyConfig) (*topology.Topology, []noc.FlowID) {
		topo, err := topology.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var flows []noc.FlowID
		for src := 0; src < topo.Nodes(); src++ {
			for dst := 0; dst < topo.Nodes(); dst++ {
				flows = append(flows, noc.MakeFlow(noc.NodeID(src), noc.NodeID(dst), 0))
			}
		}
		return topo, flows
	}
	mesh, meshFlows := build(config.TopologyConfig{Kind: config.TopoMesh, Width: 4, Height: 4})
	torus, torusFlows := build(config.TopologyConfig{Kind: config.TopoTorus, Width: 4, Height: 4})
	layered, layeredFlows := build(config.TopologyConfig{Kind: config.TopoMeshX1Y1, Width: 3, Height: 3, Layers: 2})
	static := NewStatic(xyPathSet(mesh, meshFlows))
	cases := []linkCase{{"static/mesh", static, mesh, meshFlows}}
	for _, alg := range []Algorithm{NewXY(mesh), NewYX(mesh), NewO1Turn(mesh), NewROMM(mesh), NewValiant(mesh), NewPROM(mesh), NewWestFirst(mesh)} {
		cases = append(cases, linkCase{alg.Name() + "/mesh", alg, mesh, meshFlows})
	}
	for _, alg := range []Algorithm{NewXY(torus), NewYX(torus)} {
		cases = append(cases, linkCase{alg.Name() + "/torus", alg, torus, torusFlows})
	}
	for _, alg := range []Algorithm{NewXY(layered), NewYX(layered)} {
		cases = append(cases, linkCase{alg.Name() + "/multilayer", alg, layered, layeredFlows})
	}
	return cases
}

// flowEntries is every table line of base flow f as the builder groups
// it, by key: the reference the store's lines are checked against.
func flowEntries(alg Algorithm, f noc.FlowID) map[EntryKey][]noc.RouteEntry {
	var b builder
	b.build(alg, f)
	routes := make(map[EntryKey][]noc.RouteEntry, len(b.lines))
	for _, s := range b.lines {
		for _, r := range b.recs[s.start:s.end] {
			routes[s.key] = append(routes[s.key], noc.RouteEntry{Next: r.next, Phase2: r.phase2, Weight: r.w})
		}
	}
	return routes
}

// TestRouteLinksFollowNextHop is the lookahead invariant over the shared
// store: for every key of every flow's flowEntries, a lookup (off the first
// hop, a walk from the flow's first line) returns a line with the entries
// flowEntries gives there; a forwarding entry's Then is the line its next
// router looks up — <entry.Next, this node, leaving flow> — and an
// ejection entry's Then is nil; and a walk that only follows Then draws the
// same entries and ejects where walkFlow's lookups do.
func TestRouteLinksFollowNextHop(t *testing.T) {
	for _, c := range linkCases(t) {
		t.Run(c.name, func(t *testing.T) {
			tables := NewTables(c.alg)
			var w walk
			lines := 0
			for _, f := range c.flows {
				for k, want := range flowEntries(c.alg, f) {
					node, prev, flow := k.Node, k.Prev, k.Flow
					l := tables.line(node, prev, flow, &w)
					if l == nil {
						t.Fatalf("flow %v: no line at <%d, %d, %v>", f, node, prev, flow)
					}
					if len(l.Entries) != len(want) {
						t.Fatalf("flow %v at %d from %d: %d entries, flowEntries has %d", flow, node, prev, len(l.Entries), len(want))
					}
					for i, e := range l.Entries {
						if e.Next != want[i].Next || e.Phase2 != want[i].Phase2 || e.Weight != want[i].Weight {
							t.Fatalf("flow %v at %d from %d: entry %d is %+v, flowEntries has %+v", flow, node, prev, i, e, want[i])
						}
						next := tables.line(e.Next, node, e.NextFlow(flow), &w)
						if e.Next == node {
							next = nil
						} else if next == nil {
							t.Fatalf("flow %v at %d from %d: forwarding entry to %d has no line at its next hop", flow, node, prev, e.Next)
						}
						if e.Then != next {
							t.Fatalf("flow %v at %d from %d: entry to %d links %p, want %p", flow, node, prev, e.Next, e.Then, next)
						}
					}
					lines++
				}
				if f.Src() == f.Dst() {
					continue
				}
				looked, followed := sim.NewRNG(uint64(f)), sim.NewRNG(uint64(f))
				want := walkFlow(t, tables, c.topo, f, looked)
				if got := followFlow(t, tables, f, followed); got != want {
					t.Fatalf("flow %v: following Then took %d hops, the lookups %d", f, got, want)
				}
				if *looked != *followed {
					t.Fatalf("flow %v: following Then drew differently from the lookups", f)
				}
			}
			if lines == 0 {
				t.Fatal("no table lines: the invariant checked nothing")
			}
		})
	}
}

// followFlow walks f from its source the way routers do after the first
// hop: one lookup there, then only the line the chosen entry links. It
// returns the hop count to the ejection, which must be at f's destination.
func followFlow(t *testing.T, tables *Tables, f noc.FlowID, rng *sim.RNG) int {
	t.Helper()
	node := f.Src()
	line := tables.line(node, node, f, new(walk))
	for hops := 0; line != nil && hops < 1000; hops++ {
		w := make([]float64, len(line.Entries))
		for i, e := range line.Entries {
			w[i] = e.Weight
		}
		e := line.Entries[rng.Pick(w)]
		if e.Next == node {
			if node != f.Dst() {
				t.Fatalf("flow %v ejected at %d, want %d", f, node, f.Dst())
			}
			return hops
		}
		node, line = e.Next, e.Then
	}
	t.Fatalf("flow %v: the linked walk lost its line or did not terminate at %d", f, node)
	return -1
}

// allFlows returns every flow of topo between distinct nodes.
func allFlows(topo *topology.Topology) []noc.FlowID {
	n := noc.NodeID(topo.Nodes())
	var flows []noc.FlowID
	for src := noc.NodeID(0); src < n; src++ {
		for dst := noc.NodeID(0); dst < n; dst++ {
			if src != dst {
				flows = append(flows, noc.MakeFlow(src, dst, 0))
			}
		}
	}
	return flows
}

// TestNodeTableFootprint: a node's view of the store keeps no lines of its
// own — a source keeps its flows' first-hop lines, and flits carry the rest
// — so it is the store's pointer, the node and the walk's scratch, at most
// one cache line per node.
func TestNodeTableFootprint(t *testing.T) {
	if size := unsafe.Sizeof(nodeTable{}); size > 64 {
		t.Fatalf("nodeTable is %d bytes, want at most 64", size)
	}
}

// TestRouteStoreBytesPerFlow bounds what the store keeps per flow once
// every flow of a mesh exists. A flow costs its first-hop line's slot in
// the flow map, and the lines it shares with the flows that take the same
// hops toward the same destination. Before lines were shared, each flow
// kept a flat table of its own: ~516 B per flow on 8x8 XY (the per-flow map
// of entry slices before that, 718) and ~12.9 KB on 16x16 west-first.
func TestRouteStoreBytesPerFlow(t *testing.T) {
	for _, c := range []struct {
		name  string
		size  int
		alg   func(*topology.Topology) Algorithm
		bound float64
	}{
		{"xy/8x8", 8, func(t *topology.Topology) Algorithm { return NewXY(t) }, 200},
		{"adaptive/16x16", 16, func(t *topology.Topology) Algorithm { return NewWestFirst(t) }, 150},
	} {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.size > 8 {
				t.Skip("65 280 flows")
			}
			topo, err := topology.New(config.TopologyConfig{Kind: config.TopoMesh, Width: c.size, Height: c.size})
			if err != nil {
				t.Fatal(err)
			}
			flows := allFlows(topo)
			alg := c.alg(topo)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tables := NewTables(alg)
			for _, f := range flows {
				tables.Lookup(f.Src(), f.Src(), f)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(tables)
			perFlow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(flows))
			t.Logf("%.0f heap bytes per flow, %d lines for %d flows", perFlow, tables.lines.n, len(flows))
			if perFlow >= c.bound {
				t.Fatalf("the store keeps %.0f heap bytes per flow, want < %.0f", perFlow, c.bound)
			}
		})
	}
}

// contentCount counts the distinct lines of flows' tables the way the
// store should share them, independently of it: children first, a line is
// named by its entries' next hop, phase bit, weight bits and the name of
// the line each links; lines with one name are one line. It also returns
// the lines the flows hold between them unshared.
func contentCount(t *testing.T, alg Algorithm, flows []noc.FlowID) (distinct, total int) {
	t.Helper()
	ids := map[string]int{}
	for _, f := range flows {
		routes := flowEntries(alg, f)
		total += len(routes)
		named := map[EntryKey]int{}
		var name func(k EntryKey) int
		name = func(k EntryKey) int {
			if id, ok := named[k]; ok {
				return id
			}
			sig := ""
			for _, e := range routes[k] {
				child := -1
				if next := (EntryKey{Node: e.Next, Prev: k.Node, Flow: e.NextFlow(k.Flow)}); e.Next != k.Node {
					if _, ok := routes[next]; ok {
						child = name(next)
					}
				}
				sig += fmt.Sprintf("%d/%t/%x/%d;", e.Next, e.Phase2, math.Float64bits(e.Weight), child)
			}
			id, ok := ids[sig]
			if !ok {
				id = len(ids)
				ids[sig] = id
			}
			named[k] = id
			return id
		}
		for k := range routes {
			name(k)
		}
	}
	return len(ids), total
}

// TestRouteStoreSharesLinesByContent: once every flow of an 8x8 mesh
// exists, the store holds exactly as many lines as contentCount finds, for
// every algorithm. XY holds 25 536 lines between its flows but 3 264
// distinct ones.
func TestRouteStoreSharesLinesByContent(t *testing.T) {
	topo := mesh8(t)
	flows := allFlows(topo)
	for _, c := range []struct {
		alg             Algorithm
		distinct, total int
	}{
		{NewXY(topo), 3264, 25536},
		{NewYX(topo), 3264, 25536},
		{NewO1Turn(topo), 8320, 44352},
		{NewROMM(topo), 80180, 103488},
		{NewValiant(topo), 22160, 512064},
		{NewPROM(topo), 3936, 81984},
		{NewWestFirst(topo), 3642, 53760},
	} {
		t.Run(c.alg.Name(), func(t *testing.T) {
			if testing.Short() && c.alg.Name() == "valiant" {
				t.Skip("valiant: every node is an intermediate of every flow")
			}
			tables := NewTables(c.alg)
			for _, f := range flows {
				tables.Lookup(f.Src(), f.Src(), f)
			}
			distinct, total := contentCount(t, c.alg, flows)
			t.Logf("%d distinct lines of %d (%.1fx)", distinct, total, float64(total)/float64(distinct))
			if int(tables.lines.n) != distinct {
				t.Fatalf("the store holds %d lines, the content count is %d", tables.lines.n, distinct)
			}
			if distinct != c.distinct || total != c.total {
				t.Fatalf("%d distinct lines of %d, want %d of %d", distinct, total, c.distinct, c.total)
			}
		})
	}
}

// TestRouteBuildGarbage bounds what building every flow of an 8x8 mesh
// allocates by a small multiple of what the store keeps: a flow's build
// runs in a builder the store reuses, so past the store's own growth
// (index, flow map and chunks) little is thrown away. When each build made
// maps of maps and interned their content afterwards, XY allocated 28x
// what the store kept, PROM 76x and Valiant 106x; now they read 1.6x, 1.5x
// and 1.1x.
func TestRouteBuildGarbage(t *testing.T) {
	topo := mesh8(t)
	flows := allFlows(topo)
	for _, alg := range []Algorithm{
		NewXY(topo), NewYX(topo), NewO1Turn(topo), NewROMM(topo),
		NewValiant(topo), NewPROM(topo), NewWestFirst(topo),
	} {
		t.Run(alg.Name(), func(t *testing.T) {
			if testing.Short() && alg.Name() == "valiant" {
				t.Skip("valiant: every node is an intermediate of every flow")
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tables := NewTables(alg)
			for _, f := range flows {
				tables.firstLine(f)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(tables)
			kept := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
			allocated := float64(after.TotalAlloc - before.TotalAlloc)
			t.Logf("allocated %.0f B, kept %.0f B (%.2fx), %d lines", allocated, kept, allocated/kept, tables.lines.n)
			if allocated > 2*kept {
				t.Fatalf("building every flow allocated %.0f B, %.1fx the %.0f B the store keeps; want at most 2x", allocated, allocated/kept, kept)
			}
		})
	}
}

// TestRouteRebuildAllocatesNothing: once a builder has built every flow of
// a machine, building and interning them all again into a store that holds
// their lines allocates nothing, for every algorithm and topology kind.
func TestRouteRebuildAllocatesNothing(t *testing.T) {
	for _, c := range linkCases(t) {
		t.Run(c.name, func(t *testing.T) {
			tables := NewTables(c.alg)
			for _, f := range c.flows {
				tables.firstLine(f)
			}
			var b builder
			if n := testing.AllocsPerRun(2, func() {
				for _, f := range c.flows {
					b.build(c.alg, f)
					b.intern(&tables.lines, f)
				}
			}); n != 0 {
				t.Fatalf("rebuilding every flow with a warm builder allocated %.0f times", n)
			}
		})
	}
}

// TestRouteStoreConcurrentBuildsShareLines: two goroutines that create
// every flow of an 8x8 O1TURN mesh at once, in opposite orders, get the
// same first-hop line pointer for every flow (and so the same linked
// lines), and the store holds each distinct line once.
func TestRouteStoreConcurrentBuildsShareLines(t *testing.T) {
	topo := mesh8(t)
	flows := allFlows(topo)
	tables := NewTables(NewO1Turn(topo))
	got := [2][]*noc.RouteLine{make([]*noc.RouteLine, len(flows)), make([]*noc.RouteLine, len(flows))}
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range flows {
				if g == 1 {
					i = len(flows) - 1 - i
				}
				f := flows[i]
				got[g][i] = tables.line(f.Src(), f.Src(), f, new(walk))
			}
		}()
	}
	wg.Wait()
	for i, f := range flows {
		if got[0][i] == nil || got[0][i] != got[1][i] {
			t.Fatalf("flow %v: the goroutines got first lines %p and %p", f, got[0][i], got[1][i])
		}
	}
	if distinct, _ := contentCount(t, tables.alg, flows); int(tables.lines.n) != distinct {
		t.Fatalf("the store holds %d lines, the content count is %d", tables.lines.n, distinct)
	}
}

// TestRouteStoreConcurrentResolve: a router resolves the line numbers flits
// carry without the store's lock (RouteTable.Line) while other nodes'
// lookups keep adding lines. Resolving numbers handed out earlier while the
// chunk list grows must be race-free, and every number must name its line.
func TestRouteStoreConcurrentResolve(t *testing.T) {
	topo := mesh8(t)
	flows := allFlows(topo)
	tables := NewTables(NewO1Turn(topo))
	half := len(flows) / 2
	var known []*noc.RouteLine
	for _, f := range flows[:half] {
		known = append(known, tables.line(f.Src(), f.Src(), f, new(walk)))
	}
	before := tables.lines.n
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, f := range flows[half:] {
			tables.line(f.Src(), f.Src(), f, new(walk))
		}
	}()
	view := tables.ForNode(0)
	for round := 0; round < 20; round++ {
		for _, l := range known {
			if got := view.Line(l.ID); got != l {
				t.Fatalf("line %d resolves to %p, want %p", l.ID, got, l)
			}
		}
	}
	wg.Wait()
	if (tables.lines.n-1)/lineChunk == (before-1)/lineChunk {
		t.Fatalf("the store grew from %d to %d lines within one chunk: the list never grew while resolving", before, tables.lines.n)
	}
	for id := uint32(1); id <= tables.lines.n; id++ {
		if l := view.Line(id); l.ID != id || len(l.Entries) == 0 {
			t.Fatalf("number %d resolves to line %d of %d entries", id, l.ID, len(l.Entries))
		}
	}
}

var sinkEntries int

// BenchmarkLookupWarm times route computation's table access once every
// line exists, over every flow of an 8x8 XY mesh. "first" is a packet's
// first hop, the only one a router looks up: its own node's cached view of
// the store. "store" is the shared store behind that view, which a node
// falls back to when its cache misses. "hop" is every later hop: the
// number of the line the flit carries, the previous line's entry's (Then),
// resolved in the store (RouteTable.Line), one op per hop along each flow's
// path to ejection. "walk" is what a node's view pays for a line off a
// flow's first hop that its cache does not hold, as after a restore: the
// walk from the flow's first line (find) to the line at its destination,
// in the view's reused scratch.
func BenchmarkLookupWarm(b *testing.B) {
	topo := mesh8(b)
	tables := NewTables(NewXY(topo))
	n := noc.NodeID(topo.Nodes())
	nodes := make([]noc.RouteTable, n)
	var flows []noc.FlowID
	var firsts []*noc.RouteLine
	for src := noc.NodeID(0); src < n; src++ {
		nodes[src] = tables.ForNode(src)
		for dst := noc.NodeID(0); dst < n; dst++ {
			if src != dst {
				f := noc.MakeFlow(src, dst, 0)
				flows = append(flows, f)
				firsts = append(firsts, nodes[src].Lookup(src, f)) // builds the flow and the node's memo
			}
		}
	}
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := flows[i%len(flows)]
			sinkEntries += len(nodes[f.Src()].Lookup(f.Src(), f).Entries)
		}
	})
	b.Run("store", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := flows[i%len(flows)]
			sinkEntries += len(tables.Lookup(f.Src(), f.Src(), f))
		}
	})
	b.Run("walk", func(b *testing.B) {
		lasts := make([]EntryKey, len(flows))
		for i, f := range flows {
			node, prev, flow := f.Src(), f.Src(), f
			for line := firsts[i]; line.Entries[0].Next != node; line = line.Entries[0].Then {
				node, prev, flow = line.Entries[0].Next, node, line.Entries[0].NextFlow(flow)
			}
			lasts[i] = EntryKey{Node: node, Prev: prev, Flow: flow}
		}
		var w walk
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := lasts[i%len(lasts)]
			sinkEntries += len(tables.line(k.Node, k.Prev, k.Flow, &w).Entries)
		}
	})
	b.Run("hop", func(b *testing.B) {
		b.ReportAllocs()
		var id uint32 // the number the flit carries; 0 at the first hop
		next := 0
		for i := 0; i < b.N; i++ {
			var line *noc.RouteLine
			if id == 0 {
				line, next = firsts[next], (next+1)%len(firsts)
			} else {
				line = nodes[0].Line(id)
			}
			sinkEntries += len(line.Entries)
			id = 0
			if then := line.Entries[0].Then; then != nil {
				id = then.ID
			}
		}
	})
}
