package topology

import (
	"testing"
	"testing/quick"

	"hornet/internal/config"
	"hornet/internal/noc"
)

func build(t *testing.T, cfg config.TopologyConfig) *Topology {
	t.Helper()
	topo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestMeshDegrees(t *testing.T) {
	topo := build(t, config.TopologyConfig{Kind: config.TopoMesh, Width: 4, Height: 4})
	wantDeg := map[int]int{} // degree -> count
	for n := noc.NodeID(0); n < 16; n++ {
		wantDeg[len(topo.Neighbors(n))]++
	}
	// 4 corners (2), 8 edges (3), 4 interior (4).
	if wantDeg[2] != 4 || wantDeg[3] != 8 || wantDeg[4] != 4 {
		t.Fatalf("mesh degree histogram: %v", wantDeg)
	}
	if len(topo.Edges()) != 24 {
		t.Fatalf("4x4 mesh has %d edges, want 24", len(topo.Edges()))
	}
}

func TestTorusIsRegular(t *testing.T) {
	topo := build(t, config.TopologyConfig{Kind: config.TopoTorus, Width: 4, Height: 4})
	for n := noc.NodeID(0); n < 16; n++ {
		if len(topo.Neighbors(n)) != 4 {
			t.Fatalf("torus node %d degree %d, want 4", n, len(topo.Neighbors(n)))
		}
	}
	if len(topo.Edges()) != 32 {
		t.Fatalf("4x4 torus has %d edges, want 32", len(topo.Edges()))
	}
}

func TestRingAndLine(t *testing.T) {
	ring := build(t, config.TopologyConfig{Kind: config.TopoRing, Width: 6})
	if len(ring.Edges()) != 6 {
		t.Fatalf("6-ring has %d edges", len(ring.Edges()))
	}
	line := build(t, config.TopologyConfig{Kind: config.TopoLine, Width: 6})
	if len(line.Edges()) != 5 {
		t.Fatalf("6-line has %d edges", len(line.Edges()))
	}
}

func TestCoordinateRoundTrip(t *testing.T) {
	topo := build(t, config.TopologyConfig{Kind: config.TopoMesh, Width: 7, Height: 5})
	if err := quick.Check(func(raw uint8) bool {
		n := noc.NodeID(int(raw) % topo.Nodes())
		x, y := topo.XY(n)
		return topo.NodeAt(x, y) == n && x >= 0 && x < 7 && y >= 0 && y < 5
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultilayerPortals(t *testing.T) {
	cases := []struct {
		kind      string
		wantEdges int // in-layer: 2 layers x 24; inter-layer varies
	}{
		{config.TopoMeshX1, 2*24 + 1},
		{config.TopoMeshX1Y1, 2*24 + 7}, // x==0 or y==0: 4+4-1 portals
		{config.TopoMeshXCube, 2*24 + 16},
	}
	for _, c := range cases {
		topo := build(t, config.TopologyConfig{Kind: c.kind, Width: 4, Height: 4, Layers: 2})
		if len(topo.Edges()) != c.wantEdges {
			t.Errorf("%s: %d edges, want %d", c.kind, len(topo.Edges()), c.wantEdges)
		}
		if topo.Nodes() != 32 {
			t.Errorf("%s: %d nodes", c.kind, topo.Nodes())
		}
	}
}

func TestLayerHelpers(t *testing.T) {
	topo := build(t, config.TopologyConfig{Kind: config.TopoMeshXCube, Width: 3, Height: 3, Layers: 3})
	n := topo.NodeAtL(2, 1, 2)
	if topo.Layer(n) != 2 {
		t.Fatalf("layer of %d = %d", n, topo.Layer(n))
	}
	x, y := topo.XY(n)
	if x != 2 || y != 1 {
		t.Fatalf("coords of %d = (%d,%d)", n, x, y)
	}
}

func TestManhattanDistanceSymmetric(t *testing.T) {
	topo := build(t, config.TopologyConfig{Kind: config.TopoMesh, Width: 8, Height: 8})
	if err := quick.Check(func(aRaw, bRaw uint8) bool {
		a, b := noc.NodeID(aRaw%64), noc.NodeID(bRaw%64)
		d := topo.ManhattanDistance(a, b)
		return d == topo.ManhattanDistance(b, a) && (d == 0) == (a == b)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsTooSmall(t *testing.T) {
	if _, err := New(config.TopologyConfig{Kind: config.TopoMesh, Width: 1, Height: 1}); err == nil {
		t.Fatal("1x1 mesh accepted")
	}
	if _, err := New(config.TopologyConfig{Kind: "nonsense", Width: 4, Height: 4}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
