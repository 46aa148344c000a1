package routing

import (
	"testing"
	"testing/quick"

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
		p := xyPath(topo, a, b)
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
		path := xyPath(topo, a, b)
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
			if e.NextFlow != f.Base() {
				t.Fatalf("flow %v ejected as %v, want base restored", f, e.NextFlow)
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
		prev, node, flow = node, e.Next, e.NextFlow
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
	if toward1.NextFlow.Phase2() {
		t.Fatal("continuing toward intermediate 1 must not rename")
	}
	if !toward5.NextFlow.Phase2() {
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

func TestGreedyMinMaxBalances(t *testing.T) {
	topo := mesh8(t)
	var flows []noc.FlowID
	// Many flows crossing the same row under XY.
	for i := 0; i < 8; i++ {
		flows = append(flows, noc.MakeFlow(noc.NodeID(i), noc.NodeID(56+i), 0))
	}
	paths := GreedyMinMax(topo, flows)
	if len(paths) != len(flows) {
		t.Fatalf("got %d paths for %d flows", len(paths), len(flows))
	}
	st, err := NewStatic(paths)
	if err != nil {
		t.Fatal(err)
	}
	tables := NewTables(st)
	rng := sim.NewRNG(3)
	for _, f := range flows {
		walkFlow(t, tables, topo, f, rng)
	}
}

func TestStaticRejectsBadPaths(t *testing.T) {
	if _, err := NewStatic([][]int{{1}}); err == nil {
		t.Fatal("single-node path accepted")
	}
	if _, err := NewStatic([][]int{{1, 1}}); err == nil {
		t.Fatal("repeated node accepted")
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
	if !entries[0].NextFlow.Phase2() {
		t.Fatal("crossing the dateline must rename the flow")
	}
}

var sinkEntries int

// BenchmarkLookupWarm times table lookups once every line exists: "node"
// is what a router pays per head flit (its own node's memoized view),
// "shared" is the store behind it, which a node falls back to the first
// time it sees a line. Every flow of an 8x8 mesh is looked up at its
// source.
func BenchmarkLookupWarm(b *testing.B) {
	topo := mesh8(b)
	tables := NewTables(NewXY(topo))
	n := noc.NodeID(topo.Nodes())
	nodes := make([]noc.RouteTable, n)
	var flows []noc.FlowID
	for src := noc.NodeID(0); src < n; src++ {
		nodes[src] = tables.ForNode(src)
		for dst := noc.NodeID(0); dst < n; dst++ {
			if src != dst {
				f := noc.MakeFlow(src, dst, 0)
				flows = append(flows, f)
				nodes[src].Lookup(src, f) // builds the flow and the node's memo
			}
		}
	}
	b.Run("node", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := flows[i%len(flows)]
			sinkEntries += len(nodes[f.Src()].Lookup(f.Src(), f))
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := flows[i%len(flows)]
			sinkEntries += len(tables.Lookup(f.Src(), f.Src(), f))
		}
	})
}
