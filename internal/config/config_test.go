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

func TestValidateCatches(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Topology.Kind = "blob" },
		func(c *Config) { c.Topology.Width = 1 },
		func(c *Config) { c.Router.VCsPerPort = 0 },
		func(c *Config) { c.Router.VCBufFlits = 0 },
		func(c *Config) { c.Router.LinkBandwidth = 0 },
		func(c *Config) { c.Router.VCAlloc = "psychic" },
		func(c *Config) { c.Routing.Algorithm = "teleport" },
		func(c *Config) { c.Routing.Algorithm = RouteO1Turn; c.Router.VCsPerPort = 1 },
		func(c *Config) { c.Routing.Algorithm = RouteStatic },
		func(c *Config) {
			c.Traffic = []TrafficConfig{{Pattern: PatternUniform, InjectionRate: 2}}
		},
		func(c *Config) { c.Traffic = []TrafficConfig{{Pattern: "meh"}} },
		func(c *Config) { c.Traffic = []TrafficConfig{{Pattern: PatternHotspot}} },
		func(c *Config) { c.Engine.SyncPeriod = 0 },
		func(c *Config) { c.AvgPacketFlits = 0 },
		func(c *Config) { c.Memory = DefaultMemory(); c.Memory.LineBytes = 24 },
		func(c *Config) { c.Memory = DefaultMemory(); c.Memory.Protocol = "mesi2000" },
		func(c *Config) { c.Memory = DefaultMemory(); c.Memory.Controllers = []int{9999} },
	}
	for i, mutate := range mutations {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
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

// Validation rejections carry messages precise enough to surface as
// structured API errors (hornet-serve returns them verbatim in 4xx
// responses): each names the offending field or value.
func TestValidateErrorMessages(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*Config)
		contains string
	}{
		{"unknown topology", func(c *Config) { c.Topology.Kind = "hypercube" }, "hypercube"},
		{"line too narrow", func(c *Config) { c.Topology.Kind = TopoLine; c.Topology.Width = 1 }, "width >= 2"},
		{"mesh too small", func(c *Config) { c.Topology.Height = 1 }, "width,height >= 2"},
		{"multilayer needs layers", func(c *Config) { c.Topology.Kind = TopoMeshX1; c.Topology.Layers = 1 }, "layers >= 2"},
		{"zero VCs", func(c *Config) { c.Router.VCsPerPort = 0 }, "vcs_per_port"},
		{"zero buffers", func(c *Config) { c.Router.VCBufFlits = 0 }, "vc_buf_flits"},
		{"zero bandwidth", func(c *Config) { c.Router.LinkBandwidth = 0 }, "link_bandwidth"},
		{"unknown vca", func(c *Config) { c.Router.VCAlloc = "psychic" }, "psychic"},
		{"unknown routing", func(c *Config) { c.Routing.Algorithm = "teleport" }, "teleport"},
		{"o1turn needs VCs", func(c *Config) { c.Routing.Algorithm = RouteO1Turn; c.Router.VCsPerPort = 1 }, "o1turn"},
		{"romm needs VCs", func(c *Config) { c.Routing.Algorithm = RouteROMM; c.Router.VCsPerPort = 1 }, "romm"},
		{"static needs paths", func(c *Config) { c.Routing.Algorithm = RouteStatic }, "static_paths"},
		{"short static path", func(c *Config) {
			c.Routing.Algorithm = RouteStatic
			c.Routing.StaticPaths = [][]int{{3}}
		}, "fewer than 2"},
		{"static path out of range", func(c *Config) {
			c.Routing.Algorithm = RouteStatic
			c.Routing.StaticPaths = [][]int{{0, 4096}}
		}, "outside topology"},
		{"unknown pattern", func(c *Config) { c.Traffic = []TrafficConfig{{Pattern: "storm"}} }, "storm"},
		{"rate out of range", func(c *Config) {
			c.Traffic = []TrafficConfig{{Pattern: PatternUniform, InjectionRate: 1.5}}
		}, "injection_rate"},
		{"hotspot needs nodes", func(c *Config) { c.Traffic = []TrafficConfig{{Pattern: PatternHotspot}} }, "hot_nodes"},
		{"hot node out of range", func(c *Config) {
			c.Traffic = []TrafficConfig{{Pattern: PatternHotspot, HotNodes: []int{70}}}
		}, "hot node 70"},
		{"bad line bytes", func(c *Config) { c.Memory = DefaultMemory(); c.Memory.LineBytes = 24 }, "line_bytes"},
		// A NUCA line offset travels in one byte: at 512 a store to offset 300 would land at 44.
		{"line bytes past the offset byte", func(c *Config) { c.Memory = DefaultMemory(); c.Memory.LineBytes = 512 }, "at most 256"},
		{"bad L1", func(c *Config) { c.Memory = DefaultMemory(); c.Memory.L1Sets = 0 }, "L1"},
		{"bad protocol", func(c *Config) { c.Memory = DefaultMemory(); c.Memory.Protocol = "mesi2000" }, "mesi2000"},
		{"no controllers", func(c *Config) { c.Memory = DefaultMemory(); c.Memory.Controllers = nil }, "controller"},
		{"controller out of range", func(c *Config) {
			c.Memory = DefaultMemory()
			c.Memory.Controllers = []int{9999}
		}, "9999"},
		{"zero sync period", func(c *Config) { c.Engine.SyncPeriod = 0 }, "sync_period"},
		{"negative workers", func(c *Config) { c.Engine.Workers = -1 }, "workers"},
		{"zero packet flits", func(c *Config) { c.AvgPacketFlits = 0 }, "avg_packet_flits"},
		// A flit counts its packet's length in 16 bits (noc.MaxPacketFlits).
		{"packet flits past a flit's count", func(c *Config) { c.AvgPacketFlits = 1_000_000_000 }, "avg_packet_flits must be in [1, 65535]"},
		{"traffic packet flits past a flit's count", func(c *Config) {
			c.Traffic = []TrafficConfig{{Pattern: PatternUniform, InjectionRate: 0.1, PacketFlits: 70000}}
		}, "traffic 0: packet_flits must be at most 65535"},
		{"zero epoch", func(c *Config) { c.Power.EpochCycles = 0 }, "epoch_cycles"},
		// A router's ingress state grows with its geometry (noc.NewRouter):
		// 1<<30 flits a buffer would ask for terabytes.
		{"VCs past the bound", func(c *Config) { c.Router.VCsPerPort = MaxVCsPerPort + 1 }, "vcs_per_port must be in [1, 64], got 65"},
		{"buffer past the bound", func(c *Config) { c.Router.VCBufFlits = 1 << 30 }, "vc_buf_flits must be in [1, 1024]"},
		{"injection VCs past the bound", func(c *Config) { c.Router.InjVCs = 1 << 20 }, "inj_vcs must be in [0, 64]"},
		{"negative injection VCs", func(c *Config) { c.Router.InjVCs = -1 }, "inj_vcs"},
		{"injection buffer past the bound", func(c *Config) { c.Router.InjBufFlits = 1025 }, "inj_buf_flits must be in [0, 1024]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("invalid config validated")
			}
			if !strings.Contains(err.Error(), tc.contains) {
				t.Fatalf("error %q does not mention %q", err, tc.contains)
			}
		})
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
// one flit more is not, and the rejection names its field.
func TestRouterGeometryBound(t *testing.T) {
	// A 4x4 mesh at every field bound holds exactly MaxMachineSlots: 24
	// links give 48 network ports, and 16 injection ports, each of
	// 64 x 1024 slots.
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

	// The machine's slots, every field in range: the rejection names the
	// geometry holding most of them.
	for _, c := range []struct {
		name                 string
		topo                 TopologyConfig
		vcs, buf, injV, injB int
		slots                int    // 0: accepted
		field                string // the rejection's field
	}{
		// 64 links give 128 network ports of 55 x 594 slots (4 181 760),
		// and 65 injection ports of 193 (12 545).
		{"one slot past", TopologyConfig{Kind: TopoLine, Width: 65, Height: 1}, 55, 594, 1, 193, MaxMachineSlots + 1, "vc_buf_flits"},
		{"just below", TopologyConfig{Kind: TopoLine, Width: 65, Height: 1}, 55, 594, 1, 192, 0, ""},
		{"8x8 at the field bounds", TopologyConfig{Kind: TopoMesh, Width: 8, Height: 8}, 64, 1024, 64, 1024, 18_874_368, "vc_buf_flits"},
		{"8x8, the injection ports at the field bounds", TopologyConfig{Kind: TopoMesh, Width: 8, Height: 8}, 1, 1, 64, 1024, 64*65536 + 224, "inj_buf_flits"},
		{"128x128, the default geometry", TopologyConfig{Kind: TopoMesh, Width: 128, Height: 128}, 4, 4, 0, 0, 0, ""},
		{"32x32, 16 VCs x 16 flits", TopologyConfig{Kind: TopoMesh, Width: 32, Height: 32}, 16, 16, 0, 0, 0, ""},
	} {
		cfg := Default()
		cfg.Topology = c.topo
		cfg.Router.VCsPerPort, cfg.Router.VCBufFlits = c.vcs, c.buf
		cfg.Router.InjVCs, cfg.Router.InjBufFlits = c.injV, c.injB
		err := cfg.Validate()
		var rfe *RouterFieldError
		switch {
		case c.slots == 0 && err != nil:
			t.Errorf("%s: Validate() = %v", c.name, err)
		case c.slots != 0 && (!errors.As(err, &rfe) || rfe.Slots != c.slots || rfe.Field != c.field):
			t.Errorf("%s: Validate() = %v, want %d slots on %s", c.name, err, c.slots, c.field)
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
