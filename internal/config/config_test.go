package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hornet/internal/noc"
)

func TestDefaultValidates(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	big := Default1024()
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	if big.Topology.Nodes() != 1024 {
		t.Fatalf("1024 config has %d nodes", big.Topology.Nodes())
	}
}

func TestStaticRoutingValidation(t *testing.T) {
	cfg := Default()
	cfg.Routing.Algorithm = RouteStatic
	cfg.Routing.StaticPaths = [][]int{{0, 1, 2}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Routing.StaticPaths = [][]int{{0, 999}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("out-of-topology static path accepted")
	}
}

// TestStaticPathsMustNotLoop: routing tables keep one line per link a flow
// arrives by, so a path that crosses a link twice, or paths between the
// same endpoints that together lead back to a link, cannot be followed as
// written; Validate names the path. Revisiting a node by another link, and
// paths that only share links, are fine.
// fanOut returns n paths from node 0 to node 1, each through a node of its
// own: n next hops for a flow injected at node 0.
func fanOut(n int) [][]int {
	paths := make([][]int, n)
	for i := range paths {
		paths[i] = []int{0, i + 2, 1}
	}
	return paths
}

func TestStaticPathsMustNotLoop(t *testing.T) {
	cfg := Default() // 4x4 mesh: node 1 is east of 0, node 5 south of 1
	cfg.Routing.Algorithm = RouteStatic
	for _, c := range []struct {
		paths [][]int
		path  int
		want  string
	}{
		{[][]int{{0, 1, 2}, {0, 1, 0, 1, 2}}, 1, "static path 1 (0,1,0,1,2) crosses the link 0->1 twice"},
		{[][]int{{4, 5, 1, 0, 4, 5, 6}}, 0, "crosses the link 4->5 twice"},
		{[][]int{{0, 1, 1, 2}}, 0, "(0,1,1,2) stays at node 1"},
		{[][]int{{0, 1, 5, 1, 2, 6}, {0, 4, 5, 1, 5, 6}}, 1, "(0,4,5,1,5,6) and the other paths from 0 to 6 loop through the link 1->5"},
		{[][]int{{1, 0, 4, 5, 1, 2}, {0, 1, 0}, {0, 1, 2, 1}, {0, 1, 2}, {0, 1, 5, 6, 2}}, -1, ""},
		{fanOut(255), -1, ""},
		{fanOut(256), 255, "(0,257,1) gives node 0, arriving from 0, a next hop beyond the 255"},
	} {
		if len(c.paths) > 16 {
			cfg.Topology.Width, cfg.Topology.Height = 32, 32 // nodes enough for fanOut
		}
		cfg.Routing.StaticPaths = c.paths
		err := cfg.Validate()
		if c.path < 0 {
			if err != nil {
				t.Errorf("%v: %v", c.paths, err)
			}
			continue
		}
		var spe *StaticPathError
		if !errors.As(err, &spe) || spe.Path != c.path || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got %v, want static path %d: ...%s", c.paths, err, c.path, c.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cfg := Default()
	cfg.Traffic = []TrafficConfig{{Pattern: PatternShuffle, InjectionRate: 0.05}}
	cfg.Memory = DefaultMemory()
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Topology != cfg.Topology || back.Router != cfg.Router {
		t.Fatal("round trip changed config")
	}
	if back.Memory == nil || back.Memory.LineBytes != cfg.Memory.LineBytes ||
		back.Memory.Protocol != cfg.Memory.Protocol ||
		len(back.Memory.Controllers) != len(cfg.Memory.Controllers) {
		t.Fatal("memory config lost")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := Default()
	cfg.Traffic = []TrafficConfig{{Pattern: PatternUniform, InjectionRate: 0.01}}
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Topology.Width != 8 {
		t.Fatal("loaded config wrong")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	if err := os.WriteFile(path, []byte(`{"unknown_field": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("unknown fields accepted")
	}
}

func TestTopologyNodes(t *testing.T) {
	cases := []struct {
		tc   TopologyConfig
		want int
	}{
		{TopologyConfig{Kind: TopoMesh, Width: 8, Height: 8}, 64},
		{TopologyConfig{Kind: TopoRing, Width: 5}, 5},
		{TopologyConfig{Kind: TopoMeshXCube, Width: 4, Height: 4, Layers: 3}, 48},
	}
	for _, c := range cases {
		if got := c.tc.Nodes(); got != c.want {
			t.Errorf("%+v: Nodes() = %d, want %d", c.tc, got, c.want)
		}
	}
}

// TestPacketLengthBound: the longest packet a flit can count is valid, one
// flit more is not, as the machine's default length and as a traffic
// source's own.
func TestPacketLengthBound(t *testing.T) {
	for _, tc := range []struct {
		flits int
		ok    bool
	}{{65535, true}, {65536, false}} {
		cfg := Default()
		cfg.AvgPacketFlits = tc.flits
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("avg_packet_flits %d: Validate() = %v", tc.flits, err)
		}
		cfg = Default()
		cfg.Traffic = []TrafficConfig{{Pattern: PatternUniform, InjectionRate: 0.1, PacketFlits: tc.flits}}
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("packet_flits %d: Validate() = %v", tc.flits, err)
		}
	}
}

// TestRouterGeometryBound: the largest router geometry is valid, one VC or
// one flit more is not, and the rejection names its field. The machine's
// slot bound is core.Plan's (TestPlanMachineSlots).
func TestRouterGeometryBound(t *testing.T) {
	at := Default()
	at.Topology.Width, at.Topology.Height = 4, 4
	at.Router.VCsPerPort, at.Router.VCBufFlits = MaxVCsPerPort, noc.MaxVCBufFlits
	at.Router.InjVCs, at.Router.InjBufFlits = MaxVCsPerPort, noc.MaxVCBufFlits
	if err := at.Validate(); err != nil {
		t.Fatalf("the largest geometry: %v", err)
	}
	for field, mutate := range map[string]func(*RouterConfig){
		"vcs_per_port":  func(r *RouterConfig) { r.VCsPerPort++ },
		"vc_buf_flits":  func(r *RouterConfig) { r.VCBufFlits++ },
		"inj_vcs":       func(r *RouterConfig) { r.InjVCs++ },
		"inj_buf_flits": func(r *RouterConfig) { r.InjBufFlits++ },
	} {
		cfg := at
		mutate(&cfg.Router)
		var rfe *RouterFieldError
		if err := cfg.Validate(); !errors.As(err, &rfe) || rfe.Field != field {
			t.Errorf("one past the bound of %s: Validate() = %v", field, err)
		}
	}
}

// Every topology/routing/VC-allocation/traffic constant embeds in a
// valid configuration that survives a strict JSON round trip — the
// property that makes API submissions loss-free for every enum value.
func TestConstantsJSONRoundTrip(t *testing.T) {
	roundTrip := func(t *testing.T, cfg Config) Config {
		t.Helper()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fixture invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := cfg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var back Config
		dec := json.NewDecoder(&buf)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped config invalid: %v", err)
		}
		return back
	}

	topologies := []TopologyConfig{
		{Kind: TopoLine, Width: 4, Height: 1},
		{Kind: TopoRing, Width: 6, Height: 1},
		{Kind: TopoMesh, Width: 4, Height: 4},
		{Kind: TopoTorus, Width: 4, Height: 4},
		{Kind: TopoMeshX1, Width: 2, Height: 2, Layers: 2},
		{Kind: TopoMeshX1Y1, Width: 2, Height: 2, Layers: 2},
		{Kind: TopoMeshXCube, Width: 2, Height: 2, Layers: 2},
	}
	for _, topo := range topologies {
		t.Run("topo-"+topo.Kind, func(t *testing.T) {
			cfg := Default()
			cfg.Topology = topo
			back := roundTrip(t, cfg)
			if back.Topology != topo {
				t.Fatalf("topology changed: %+v -> %+v", topo, back.Topology)
			}
		})
	}

	for _, alg := range []string{RouteXY, RouteYX, RouteO1Turn, RouteROMM,
		RouteValiant, RoutePROM, RouteStatic, RouteAdaptive} {
		t.Run("routing-"+alg, func(t *testing.T) {
			cfg := Default()
			cfg.Routing.Algorithm = alg
			if alg == RouteStatic {
				cfg.Routing.StaticPaths = [][]int{{0, 1, 2}}
			}
			back := roundTrip(t, cfg)
			if back.Routing.Algorithm != alg {
				t.Fatalf("algorithm changed: %s -> %s", alg, back.Routing.Algorithm)
			}
			if alg == RouteStatic && len(back.Routing.StaticPaths) != 1 {
				t.Fatal("static paths lost in round trip")
			}
		})
	}

	for _, vca := range []string{VCADynamic, VCAStaticSet, VCAEDVCA, VCAFAA} {
		t.Run("vca-"+vca, func(t *testing.T) {
			cfg := Default()
			cfg.Router.VCAlloc = vca
			if back := roundTrip(t, cfg); back.Router.VCAlloc != vca {
				t.Fatalf("vca changed: %s -> %s", vca, back.Router.VCAlloc)
			}
		})
	}

	for _, pat := range []string{PatternUniform, PatternTranspose, PatternBitComplement,
		PatternShuffle, PatternTornado, PatternNeighbor, PatternHotspot, PatternH264} {
		t.Run("pattern-"+pat, func(t *testing.T) {
			cfg := Default()
			tc := TrafficConfig{Pattern: pat, InjectionRate: 0.02}
			if pat == PatternHotspot {
				tc.HotNodes = []int{0, 9}
				tc.HotFrac = 0.8
			}
			cfg.Traffic = []TrafficConfig{tc}
			back := roundTrip(t, cfg)
			if len(back.Traffic) != 1 || back.Traffic[0].Pattern != pat {
				t.Fatalf("pattern lost: %+v", back.Traffic)
			}
			if pat == PatternHotspot &&
				(len(back.Traffic[0].HotNodes) != 2 || back.Traffic[0].HotFrac != 0.8) {
				t.Fatalf("hotspot params lost: %+v", back.Traffic[0])
			}
		})
	}
}
