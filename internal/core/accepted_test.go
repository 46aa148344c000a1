package core_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/scenario"
	"hornet/internal/service"
)

// acceptedCases are machines the builders refuse. Each is a config and,
// written from it, a scenario document.
var acceptedCases = []struct {
	name   string
	mutate func(c *config.Config)
	field  string // below the configuration root
	msg    string
}{
	{"adaptive-torus", func(c *config.Config) {
		c.Topology.Kind, c.Routing.Algorithm = config.TopoTorus, config.RouteAdaptive
	}, "routing/algorithm", "adaptive routing requires a (single-layer) mesh"},
	{"romm-ring", func(c *config.Config) {
		c.Topology = config.TopologyConfig{Kind: config.TopoRing, Width: 8, Height: 1}
		c.Routing.Algorithm = config.RouteROMM
	}, "routing/algorithm", "romm routing requires a (single-layer) mesh"},
	{"prom-one-vc", func(c *config.Config) {
		c.Routing.Algorithm, c.Router.VCsPerPort = config.RoutePROM, 1
	}, "router/vcs_per_port", "prom routing needs >= 2 VCs per port"},
	{"xy-torus-one-vc", func(c *config.Config) {
		c.Topology.Kind, c.Router.VCsPerPort = config.TopoTorus, 1
	}, "router/vcs_per_port", "xy routing needs >= 2 VCs per port"},
	{"static-not-neighbours", func(c *config.Config) {
		c.Routing = config.RoutingConfig{Algorithm: config.RouteStatic, StaticPaths: [][]int{{0, 5, 15}}}
		c.Traffic = []config.TrafficConfig{{Pattern: config.PatternHotspot, InjectionRate: 0.05, HotNodes: []int{15}}}
	}, "routing/static_paths/0", "hops from 0 to 5, which no link joins"},
	{"static-uncovered", func(c *config.Config) {
		c.Routing = config.RoutingConfig{Algorithm: config.RouteStatic, StaticPaths: [][]int{{0, 1}}}
	}, "routing/static_paths", "traffic 0 (uniform) sends from 0 to 2, which no static path covers"},
	{"shuffle-3x3", func(c *config.Config) {
		c.Topology.Width, c.Topology.Height = 3, 3
		c.Traffic[0].Pattern = config.PatternShuffle
	}, "traffic/0/pattern", "shuffle needs a power-of-two node count, got 9"},
	{"h264-rate-0", func(c *config.Config) {
		c.Traffic[0] = config.TrafficConfig{Pattern: config.PatternH264}
	}, "traffic/0/injection_rate", "h264 profile needs injection_rate > 0"},
	// A path between nodes no link joins once panicked an engine worker.
	{"static-0-5", func(c *config.Config) {
		c.Routing = config.RoutingConfig{Algorithm: config.RouteStatic, StaticPaths: [][]int{{0, 5}}}
	}, "routing/static_paths/0", "hops from 0 to 5, which no link joins"},
}

// acceptedConfig is a runnable 4x4 mesh under uniform traffic with the
// case's mutation applied.
func acceptedConfig(mutate func(c *config.Config)) config.Config {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.05}}
	cfg.WarmupCycles, cfg.AnalyzedCycles = 100, 1000
	mutate(&cfg)
	return cfg
}

// scenarioDoc writes cfg's machine and traffic as a scenario document.
func scenarioDoc(t *testing.T, cfg config.Config) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(map[string]any{"version": 1, "traffic": cfg.Traffic,
		"machine": map[string]any{"topology": cfg.Topology, "router": cfg.Router, "routing": cfg.Routing}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// buildRun builds a compiled run's machine and attaches its frontend, as
// the service does, without running a cycle.
func buildRun(t *testing.T, r scenario.Run) {
	t.Helper()
	sys, err := core.New(r.Config)
	if err == nil && r.Workload == nil {
		err = sys.AttachSyntheticTraffic()
	} else if err == nil {
		err = sys.AttachWorkload(r.Workload)
	}
	if err != nil {
		t.Fatalf("%s: %v", r.Key, err)
	}
}

// TestAcceptedMeansBuildable: validation is core.Plan, so what it accepts
// the build accepts, and what the build refuses it rejects — in the
// scenario spelling and the legacy config spelling, at the field at
// fault. Every preset and every TestSummaryGolden machine plans, builds
// and attaches its frontend.
func TestAcceptedMeansBuildable(t *testing.T) {
	for _, c := range acceptedCases {
		t.Run(c.name, func(t *testing.T) {
			cfg := acceptedConfig(c.mutate)
			scenField := "/scenario/machine/" + c.field
			if strings.HasPrefix(c.field, "traffic/") {
				scenField = "/scenario/" + c.field
			}
			for _, s := range []struct {
				req         service.SubmitRequest
				code, field string
			}{
				{service.SubmitRequest{Scenario: scenarioDoc(t, cfg)}, service.CodeInvalidScenario, scenField},
				{service.SubmitRequest{Config: &cfg}, service.CodeInvalidConfig, "/config/" + c.field},
			} {
				_, apiErr := service.DryRun(s.req)
				if apiErr == nil || apiErr.Code != s.code || apiErr.Field != s.field || !strings.Contains(apiErr.Message, c.msg) {
					t.Errorf("DryRun = %v, want %s at %q: ...%s", apiErr, s.code, s.field, c.msg)
				}
			}
		})
	}
	for _, name := range scenario.PresetNames() {
		s, _ := scenario.Preset(name)
		comp, ferr := scenario.Compile(s)
		if ferr != nil {
			t.Fatalf("preset %s: %v", name, ferr)
		}
		for _, r := range comp.Runs {
			buildRun(t, r)
		}
	}
	for i, cfg := range core.GoldenConfigs() {
		buildRun(t, scenario.Run{Key: fmt.Sprintf("golden %d", i), Config: cfg})
	}
}
