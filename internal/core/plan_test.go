package core

import (
	"errors"
	"strings"
	"testing"

	"hornet/internal/config"
	"hornet/internal/noc"
)

// TestPlanMachineSlots: the machine's ingress slots, counted from the
// planned ports, are at most config.MaxMachineSlots; past it, every field
// in range, the rejection names the geometry holding most of them.
func TestPlanMachineSlots(t *testing.T) {
	// A 4x4 mesh at every field bound holds exactly MaxMachineSlots: 24
	// links give 48 network ports, and 16 injection ports, each of
	// 64 x 1024 slots.
	at := config.Default()
	at.Topology.Width, at.Topology.Height = 4, 4
	at.Router.VCsPerPort, at.Router.VCBufFlits = config.MaxVCsPerPort, noc.MaxVCBufFlits
	at.Router.InjVCs, at.Router.InjBufFlits = config.MaxVCsPerPort, noc.MaxVCBufFlits
	if p, err := Plan(at); err != nil || p.Slots != config.MaxMachineSlots {
		t.Fatalf("the largest geometry: Plan() = %v, want %d slots", err, config.MaxMachineSlots)
	}

	for _, c := range []struct {
		name                 string
		topo                 config.TopologyConfig
		vcs, buf, injV, injB int
		slots                int    // 0: accepted
		field                string // the rejection's field
	}{
		// 64 links give 128 network ports of 55 x 594 slots (4 181 760),
		// and 65 injection ports of 193 (12 545).
		{"one slot past", config.TopologyConfig{Kind: config.TopoLine, Width: 65, Height: 1}, 55, 594, 1, 193, config.MaxMachineSlots + 1, "vc_buf_flits"},
		{"just below", config.TopologyConfig{Kind: config.TopoLine, Width: 65, Height: 1}, 55, 594, 1, 192, 0, ""},
		{"8x8 at the field bounds", config.TopologyConfig{Kind: config.TopoMesh, Width: 8, Height: 8}, 64, 1024, 64, 1024, 18_874_368, "vc_buf_flits"},
		{"8x8, the injection ports at the field bounds", config.TopologyConfig{Kind: config.TopoMesh, Width: 8, Height: 8}, 1, 1, 64, 1024, 64*65536 + 224, "inj_buf_flits"},
		{"128x128, the default geometry", config.TopologyConfig{Kind: config.TopoMesh, Width: 128, Height: 128}, 4, 4, 0, 0, 0, ""},
		{"32x32, 16 VCs x 16 flits", config.TopologyConfig{Kind: config.TopoMesh, Width: 32, Height: 32}, 16, 16, 0, 0, 0, ""},
	} {
		cfg := config.Default()
		cfg.Topology = c.topo
		cfg.Router.VCsPerPort, cfg.Router.VCBufFlits = c.vcs, c.buf
		cfg.Router.InjVCs, cfg.Router.InjBufFlits = c.injV, c.injB
		_, err := Plan(cfg)
		var rfe *config.RouterFieldError
		switch {
		case c.slots == 0 && err != nil:
			t.Errorf("%s: Plan() = %v", c.name, err)
		case c.slots != 0 && (!errors.As(err, &rfe) || rfe.Slots != c.slots || rfe.Field != c.field ||
			config.Field(err) != "router/"+c.field):
			t.Errorf("%s: Plan() = %v, want %d slots on %s", c.name, err, c.slots, c.field)
		}
	}
}

// TestPlanSlotsMatchBuild: the slots Plan counts are the ingress buffers
// New builds, for every topology kind.
func TestPlanSlotsMatchBuild(t *testing.T) {
	for _, topo := range []config.TopologyConfig{
		{Kind: config.TopoLine, Width: 5, Height: 1},
		{Kind: config.TopoRing, Width: 6, Height: 1},
		{Kind: config.TopoMesh, Width: 4, Height: 3},
		{Kind: config.TopoTorus, Width: 4, Height: 4},
		{Kind: config.TopoMeshX1, Width: 3, Height: 2, Layers: 3},
		{Kind: config.TopoMeshX1Y1, Width: 3, Height: 3, Layers: 2},
		{Kind: config.TopoMeshXCube, Width: 2, Height: 3, Layers: 2},
	} {
		cfg := config.Default()
		cfg.Topology = topo
		cfg.Router.VCsPerPort, cfg.Router.VCBufFlits, cfg.Router.InjBufFlits = 3, 5, 7
		p, err := Plan(cfg)
		if err != nil {
			t.Fatalf("%s: %v", topo.Kind, err)
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", topo.Kind, err)
		}
		built := 0
		for _, tile := range sys.Tiles() {
			for _, port := range tile.Router.Ports() {
				for _, vc := range port.In {
					built += vc.Capacity()
				}
			}
		}
		if built != p.Slots {
			t.Errorf("%s: Plan counts %d slots, New builds %d", topo.Kind, p.Slots, built)
		}
	}
}

// TestStaticRejectsBadPaths: static paths are held to the machine — each
// at least two nodes inside it, hopping between neighbours, looping
// through no link — and to the traffic: every flow it makes needs a path,
// checked source by source for a permutation, over every ordered pair for
// uniform and hotspot traffic and for a machine without traffic entries
// (a workload or a trace). Loop errors come before coverage errors.
func TestStaticRejectsBadPaths(t *testing.T) {
	// xyPaths returns every ordered pair's x-first path on a w x h mesh.
	xyPaths := func(w, h int) (paths [][]int) {
		for src := 0; src < w*h; src++ {
			for dst := 0; dst < w*h; dst++ {
				if src == dst {
					continue
				}
				p := []int{src}
				for v := src; v != dst; p = append(p, v) {
					switch vx, dx := v%w, dst%w; {
					case vx < dx:
						v++
					case vx > dx:
						v--
					case v < dst:
						v += w
					default:
						v -= w
					}
				}
				paths = append(paths, p)
			}
		}
		return paths
	}
	neighbor := []config.TrafficConfig{{Pattern: config.PatternNeighbor, InjectionRate: 0.1}}
	uniform := []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.1}}
	hotspot := []config.TrafficConfig{{Pattern: config.PatternHotspot, InjectionRate: 0.1, HotNodes: []int{15}}}
	// neighbor on a 4x4 mesh: x -> x+1 along each row, the last column
	// back to the first.
	var ring [][]int
	for y := 0; y < 4; y++ {
		ring = append(ring, []int{4 * y, 4*y + 1}, []int{4*y + 1, 4*y + 2}, []int{4*y + 2, 4*y + 3}, []int{4*y + 3, 4*y + 2, 4*y + 1, 4 * y})
	}
	for _, c := range []struct {
		name    string
		paths   [][]int
		traffic []config.TrafficConfig
		field   string // "": accepted
		msg     string
	}{
		{"single node", [][]int{{1}}, neighbor, "routing/static_paths/0", "has fewer than 2 nodes"},
		{"repeated node", [][]int{{1, 1}}, neighbor, "routing/static_paths/0", "stays at node 1"},
		{"loop", [][]int{{0, 1, 0, 1, 2}}, neighbor, "routing/static_paths/0", "crosses the link 0->1 twice"},
		{"not neighbours", [][]int{{0, 5, 15}}, hotspot, "routing/static_paths/0", "(0,5,15) hops from 0 to 5, which no link joins"},
		{"a permutation covered", ring, neighbor, "", ""},
		{"a permutation short of one flow", ring[1:], neighbor, "routing/static_paths",
			"traffic 0 (neighbor) sends from 0 to 1, which no static path covers"},
		{"a permutation's paths do not cover uniform", ring, uniform, "routing/static_paths",
			"traffic 0 (uniform) sends from 0 to 2, which no static path covers"},
		{"every pair covered", xyPaths(4, 4), uniform, "", ""},
		{"every pair covered, hotspot", xyPaths(4, 4), hotspot, "", ""},
		{"every pair covered, no traffic", xyPaths(4, 4), nil, "", ""},
		{"one pair short", xyPaths(4, 4)[:239], uniform, "routing/static_paths",
			"traffic 0 (uniform) sends from 15 to 14, which no static path covers"},
		{"one pair short, no traffic", xyPaths(4, 4)[:239], nil, "routing/static_paths",
			"a workload or trace sends from 15 to 14, which no static path covers"},
		{"the second entry uncovered", ring, append(neighbor, uniform...), "routing/static_paths", "traffic 1 (uniform)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.Topology.Width, cfg.Topology.Height = 4, 4
			cfg.Routing = config.RoutingConfig{Algorithm: config.RouteStatic, StaticPaths: c.paths}
			cfg.Traffic = c.traffic
			_, err := Plan(cfg)
			switch {
			case c.field == "" && err != nil:
				t.Fatalf("Plan() = %v", err)
			case c.field != "" && (err == nil || config.Field(err) != c.field || !strings.Contains(err.Error(), c.msg)):
				t.Fatalf("Plan() = %v at %q, want ...%s at %q", err, config.Field(err), c.msg, c.field)
			}
		})
	}
}
