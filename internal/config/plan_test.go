package config_test

import (
	"strings"
	"testing"

	"hornet/internal/config"
	"hornet/internal/core"
)

// TestValidateCatches: each mutation of the baseline makes a configuration
// core.Plan rejects.
func TestValidateCatches(t *testing.T) {
	mutations := []func(*config.Config){
		func(c *config.Config) { c.Topology.Kind = "blob" },
		func(c *config.Config) { c.Topology.Width = 1 },
		func(c *config.Config) { c.Router.VCsPerPort = 0 },
		func(c *config.Config) { c.Router.VCBufFlits = 0 },
		func(c *config.Config) { c.Router.LinkBandwidth = 0 },
		func(c *config.Config) { c.Router.VCAlloc = "psychic" },
		func(c *config.Config) { c.Routing.Algorithm = "teleport" },
		func(c *config.Config) { c.Routing.Algorithm = config.RouteO1Turn; c.Router.VCsPerPort = 1 },
		func(c *config.Config) { c.Routing.Algorithm = config.RouteStatic },
		func(c *config.Config) {
			c.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 2}}
		},
		func(c *config.Config) { c.Traffic = []config.TrafficConfig{{Pattern: "meh"}} },
		func(c *config.Config) { c.Traffic = []config.TrafficConfig{{Pattern: config.PatternHotspot}} },
		func(c *config.Config) { c.Engine.SyncPeriod = 0 },
		func(c *config.Config) { c.AvgPacketFlits = 0 },
		func(c *config.Config) { c.Memory = config.DefaultMemory(); c.Memory.LineBytes = 24 },
		func(c *config.Config) { c.Memory = config.DefaultMemory(); c.Memory.Protocol = "mesi2000" },
		func(c *config.Config) { c.Memory = config.DefaultMemory(); c.Memory.Controllers = []int{9999} },
	}
	for i, mutate := range mutations {
		cfg := config.Default()
		mutate(&cfg)
		if _, err := core.Plan(cfg); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

// Validation rejections carry messages precise enough to surface as
// structured API errors (hornet-serve returns them verbatim in 4xx
// responses): each names the offending field or value, and carries the
// field the API points at. Validation is core.Plan, which runs
// Config.Validate and then asks the builders.
func TestValidateErrorMessages(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*config.Config)
		contains string
		field    string // config.Field of the rejection
	}{
		{"unknown topology", func(c *config.Config) { c.Topology.Kind = "hypercube" }, "hypercube", ""},
		{"line too narrow", func(c *config.Config) { c.Topology.Kind = config.TopoLine; c.Topology.Width = 1 }, "width >= 2", ""},
		{"mesh too small", func(c *config.Config) { c.Topology.Height = 1 }, "width,height >= 2", ""},
		{"multilayer needs layers", func(c *config.Config) { c.Topology.Kind = config.TopoMeshX1; c.Topology.Layers = 1 }, "layers >= 2", ""},
		{"zero VCs", func(c *config.Config) { c.Router.VCsPerPort = 0 }, "vcs_per_port", "router/vcs_per_port"},
		{"zero buffers", func(c *config.Config) { c.Router.VCBufFlits = 0 }, "vc_buf_flits", "router/vc_buf_flits"},
		{"zero bandwidth", func(c *config.Config) { c.Router.LinkBandwidth = 0 }, "link_bandwidth", "router/link_bandwidth"},
		{"unknown vca", func(c *config.Config) { c.Router.VCAlloc = "psychic" }, "psychic", "router/vc_alloc"},
		{"unknown routing", func(c *config.Config) { c.Routing.Algorithm = "teleport" }, "teleport", "routing/algorithm"},
		{"o1turn needs VCs", func(c *config.Config) { c.Routing.Algorithm = config.RouteO1Turn; c.Router.VCsPerPort = 1 }, "o1turn", "router/vcs_per_port"},
		{"romm needs VCs", func(c *config.Config) { c.Routing.Algorithm = config.RouteROMM; c.Router.VCsPerPort = 1 }, "romm", "router/vcs_per_port"},
		{"static needs paths", func(c *config.Config) { c.Routing.Algorithm = config.RouteStatic }, "static_paths", "routing/static_paths"},
		{"short static path", func(c *config.Config) {
			c.Routing.Algorithm = config.RouteStatic
			c.Routing.StaticPaths = [][]int{{3}}
		}, "fewer than 2", "routing/static_paths/0"},
		{"static path out of range", func(c *config.Config) {
			c.Routing.Algorithm = config.RouteStatic
			c.Routing.StaticPaths = [][]int{{0, 4096}}
		}, "outside topology", "routing/static_paths/0"},
		{"unknown pattern", func(c *config.Config) { c.Traffic = []config.TrafficConfig{{Pattern: "storm"}} }, "storm", "traffic/0/pattern"},
		{"rate out of range", func(c *config.Config) {
			c.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 1.5}}
		}, "injection_rate", "traffic/0/injection_rate"},
		{"hotspot needs nodes", func(c *config.Config) { c.Traffic = []config.TrafficConfig{{Pattern: config.PatternHotspot}} }, "hot_nodes", "traffic/0/hot_nodes"},
		{"hot node out of range", func(c *config.Config) {
			c.Traffic = []config.TrafficConfig{{Pattern: config.PatternHotspot, HotNodes: []int{70}}}
		}, "hot node 70", "traffic/0/hot_nodes"},
		{"bad line bytes", func(c *config.Config) { c.Memory = config.DefaultMemory(); c.Memory.LineBytes = 24 }, "line_bytes", "memory/line_bytes"},
		// A NUCA line offset travels in one byte: at 512 a store to offset 300 would land at 44.
		{"line bytes past the offset byte", func(c *config.Config) { c.Memory = config.DefaultMemory(); c.Memory.LineBytes = 512 }, "at most 256", "memory/line_bytes"},
		{"bad L1", func(c *config.Config) { c.Memory = config.DefaultMemory(); c.Memory.L1Sets = 0 }, "L1", "memory"},
		{"bad protocol", func(c *config.Config) { c.Memory = config.DefaultMemory(); c.Memory.Protocol = "mesi2000" }, "mesi2000", "memory/protocol"},
		{"no controllers", func(c *config.Config) { c.Memory = config.DefaultMemory(); c.Memory.Controllers = nil }, "controller", "memory/controllers"},
		{"controller out of range", func(c *config.Config) {
			c.Memory = config.DefaultMemory()
			c.Memory.Controllers = []int{9999}
		}, "9999", "memory/controllers"},
		{"zero sync period", func(c *config.Config) { c.Engine.SyncPeriod = 0 }, "sync_period", "engine/sync_period"},
		{"negative workers", func(c *config.Config) { c.Engine.Workers = -1 }, "workers", "engine/workers"},
		{"zero packet flits", func(c *config.Config) { c.AvgPacketFlits = 0 }, "avg_packet_flits", "avg_packet_flits"},
		// A flit counts its packet's length in 16 bits (noc.MaxPacketFlits).
		{"packet flits past a flit's count", func(c *config.Config) { c.AvgPacketFlits = 1_000_000_000 }, "avg_packet_flits must be in [1, 65535]", "avg_packet_flits"},
		{"traffic packet flits past a flit's count", func(c *config.Config) {
			c.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.1, PacketFlits: 70000}}
		}, "traffic 0: packet_flits must be at most 65535", "traffic/0/packet_flits"},
		{"zero epoch", func(c *config.Config) { c.Power.EpochCycles = 0 }, "epoch_cycles", "power/epoch_cycles"},
		// A router's ingress state grows with its geometry (noc.NewRouter):
		// 1<<30 flits a buffer would ask for terabytes.
		{"VCs past the bound", func(c *config.Config) { c.Router.VCsPerPort = config.MaxVCsPerPort + 1 }, "vcs_per_port must be in [1, 64], got 65", "router/vcs_per_port"},
		{"buffer past the bound", func(c *config.Config) { c.Router.VCBufFlits = 1 << 30 }, "vc_buf_flits must be in [1, 1024]", "router/vc_buf_flits"},
		{"injection VCs past the bound", func(c *config.Config) { c.Router.InjVCs = 1 << 20 }, "inj_vcs must be in [0, 64]", "router/inj_vcs"},
		{"negative injection VCs", func(c *config.Config) { c.Router.InjVCs = -1 }, "inj_vcs", "router/inj_vcs"},
		{"injection buffer past the bound", func(c *config.Config) { c.Router.InjBufFlits = 1025 }, "inj_buf_flits must be in [0, 1024]", "router/inj_buf_flits"},
		// What the builders decide of the fields together.
		{"too many nodes", func(c *config.Config) { c.Topology.Width = 1<<62 + 4 }, "exceeds FlowID limit", ""},
		{"prom needs VCs", func(c *config.Config) { c.Routing.Algorithm = config.RoutePROM; c.Router.VCsPerPort = 1 },
			"prom routing needs >= 2 VCs per port, got 1", "router/vcs_per_port"},
		{"xy on a torus needs VCs", func(c *config.Config) { c.Topology.Kind = config.TopoTorus; c.Router.VCsPerPort = 1 },
			"xy routing needs >= 2 VCs per port", "router/vcs_per_port"},
		{"adaptive on a torus", func(c *config.Config) { c.Topology.Kind = config.TopoTorus; c.Routing.Algorithm = config.RouteAdaptive },
			"adaptive routing requires a (single-layer) mesh", "routing/algorithm"},
		{"valiant on a multilayer mesh", func(c *config.Config) {
			c.Topology = config.TopologyConfig{Kind: config.TopoMeshXCube, Width: 2, Height: 2, Layers: 2}
			c.Routing.Algorithm = config.RouteValiant
		}, "valiant routing requires a (single-layer) mesh", "routing/algorithm"},
		{"shuffle on 9 nodes", func(c *config.Config) {
			c.Topology.Width, c.Topology.Height = 3, 3
			c.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform}, {Pattern: config.PatternShuffle}}
		}, "shuffle needs a power-of-two node count, got 9", "traffic/1/pattern"},
		{"h264 at rate 0", func(c *config.Config) { c.Traffic = []config.TrafficConfig{{Pattern: config.PatternH264}} },
			"h264 profile needs injection_rate > 0", "traffic/0/injection_rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			tc.mutate(&cfg)
			_, err := core.Plan(cfg)
			if err == nil {
				t.Fatal("invalid config validated")
			}
			if !strings.Contains(err.Error(), tc.contains) {
				t.Fatalf("error %q does not mention %q", err, tc.contains)
			}
			if f := config.Field(err); f != tc.field {
				t.Fatalf("error %q names field %q, want %q", err, f, tc.field)
			}
		})
	}
}
