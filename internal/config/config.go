// Package config defines the typed configuration tree for a HORNET
// simulation: interconnect geometry, router resources, routing and VC
// allocation algorithms, traffic sources, memory hierarchy, power and
// thermal model parameters, and the parallel-engine settings (worker
// count, synchronization period, fast-forwarding).
//
// The zero value is not usable; start from Default() and override fields.
// Config round-trips through JSON so experiment harnesses can archive the
// exact configuration used for each run.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"hornet/internal/noc"
)

// Topology names accepted by Config.Topology.Kind.
const (
	TopoLine      = "line"
	TopoRing      = "ring"
	TopoMesh      = "mesh"       // 2D mesh
	TopoTorus     = "torus"      // 2D torus with dateline VCs
	TopoMeshX1    = "mesh-x1"    // multilayer mesh, one inter-layer link per layer pair (at 0,0)
	TopoMeshX1Y1  = "mesh-x1y1"  // multilayer mesh, inter-layer links along x=0 and y=0 edges
	TopoMeshXCube = "mesh-xcube" // multilayer mesh, inter-layer link at every node
)

// Routing algorithm names accepted by Config.Routing.Algorithm.
const (
	RouteXY       = "xy"
	RouteYX       = "yx"
	RouteO1Turn   = "o1turn"
	RouteROMM     = "romm"     // two-phase ROMM (random intermediate in minimal rectangle)
	RouteValiant  = "valiant"  // two-phase Valiant (random intermediate anywhere)
	RoutePROM     = "prom"     // path-based randomized oblivious minimal routing
	RouteStatic   = "static"   // explicit per-flow paths (BSOR-style input)
	RouteAdaptive = "adaptive" // turn-model (west-first) adaptive routing
)

// VC allocation policy names accepted by Config.Router.VCAlloc.
const (
	VCADynamic   = "dynamic"
	VCAStaticSet = "static-set"
	VCAEDVCA     = "edvca"
	VCAFAA       = "faa"
)

// Traffic pattern names accepted by TrafficConfig.Pattern.
const (
	PatternUniform       = "uniform"
	PatternTranspose     = "transpose"
	PatternBitComplement = "bitcomp"
	PatternShuffle       = "shuffle"
	PatternTornado       = "tornado"
	PatternNeighbor      = "neighbor"
	PatternHotspot       = "hotspot"
	PatternH264          = "h264" // H.264 decoder profile: low-rate CBR flows
)

// TopologyConfig describes the interconnect geometry.
type TopologyConfig struct {
	Kind   string `json:"kind"`
	Width  int    `json:"width"`            // X dimension (nodes)
	Height int    `json:"height"`           // Y dimension (nodes); 1 for line/ring
	Layers int    `json:"layers,omitempty"` // multilayer meshes only
}

// Nodes returns the total node count implied by the geometry.
func (t TopologyConfig) Nodes() int {
	l := t.Layers
	if l <= 0 {
		l = 1
	}
	h := t.Height
	if h <= 0 {
		h = 1
	}
	return t.Width * h * l
}

// RouterConfig describes per-node router resources.
type RouterConfig struct {
	VCsPerPort    int    `json:"vcs_per_port"`
	VCBufFlits    int    `json:"vc_buf_flits"`   // capacity of each VC buffer, in flits
	LinkBandwidth int    `json:"link_bandwidth"` // flits per cycle per link direction
	VCAlloc       string `json:"vc_alloc"`       // one of the VCA* constants
	Bidirectional bool   `json:"bidirectional"`  // bandwidth-adaptive bidirectional links
	// InjVCs and InjBufFlits configure the CPU<->switch port separately,
	// as the paper allows; zero means "same as network ports".
	InjVCs      int `json:"inj_vcs,omitempty"`
	InjBufFlits int `json:"inj_buf_flits,omitempty"`
}

// RoutingConfig selects and parameterizes the routing algorithm.
type RoutingConfig struct {
	Algorithm string `json:"algorithm"`
	// StaticPaths carries explicit routes for RouteStatic:
	// each path is a node-ID sequence from source to destination.
	StaticPaths [][]int `json:"static_paths,omitempty"`
}

// TrafficConfig describes one synthetic traffic source set (network-only mode).
type TrafficConfig struct {
	Pattern string `json:"pattern"`
	// InjectionRate is the probability per node per cycle of starting a
	// new packet (average offered load; packets, not flits).
	InjectionRate float64 `json:"injection_rate"`
	PacketFlits   int     `json:"packet_flits"` // flits per packet (0 => Config.AvgPacketFlits)
	// Burst parameters: if BurstLen > 0, injection alternates between
	// bursts of BurstLen cycles at InjectionRate and gaps of BurstGap
	// idle cycles (used by the low-traffic bit-complement workload).
	BurstLen int `json:"burst_len,omitempty"`
	BurstGap int `json:"burst_gap,omitempty"`
	// Hotspot destinations (PatternHotspot): fraction HotFrac of traffic
	// targets the listed nodes.
	HotNodes []int   `json:"hot_nodes,omitempty"`
	HotFrac  float64 `json:"hot_frac,omitempty"`
}

// MemoryConfig describes the cache hierarchy and memory controllers used by
// the MIPS frontend (and by MC-directed network-only traffic).
type MemoryConfig struct {
	LineBytes    int    `json:"line_bytes"`
	L1Sets       int    `json:"l1_sets"`
	L1Ways       int    `json:"l1_ways"`
	L1LatencyCyc int    `json:"l1_latency"`
	Protocol     string `json:"protocol"`       // "msi" or "nuca"
	Controllers  []int  `json:"controllers"`    // node IDs hosting memory controllers
	MCLatencyCyc int    `json:"mc_latency"`     // DRAM access latency
	MCQueueDepth int    `json:"mc_queue_depth"` // max outstanding requests per MC
}

// PowerConfig carries the ORION-style event energies (picojoules) and
// leakage (milliwatts per router) used by the power model.
type PowerConfig struct {
	BufReadPJ   float64 `json:"buf_read_pj"`
	BufWritePJ  float64 `json:"buf_write_pj"`
	XbarPJ      float64 `json:"xbar_pj"`
	ArbPJ       float64 `json:"arb_pj"`
	LinkPJ      float64 `json:"link_pj"`
	LeakageMW   float64 `json:"leakage_mw"`
	ClockGHz    float64 `json:"clock_ghz"`
	EpochCycles int     `json:"epoch_cycles"` // power/thermal sampling period
}

// ThermalConfig parameterizes the HOTSPOT-style RC grid.
type ThermalConfig struct {
	AmbientC       float64 `json:"ambient_c"`
	RVerticalKPerW float64 `json:"r_vertical"` // tile -> heat sink
	RLateralKPerW  float64 `json:"r_lateral"`  // tile <-> neighbouring tile
	CJPerK         float64 `json:"c_j_per_k"`  // tile thermal capacitance
}

// EngineConfig controls the parallel simulation engine.
type EngineConfig struct {
	Workers     int    `json:"workers"`      // host threads; 0 => GOMAXPROCS
	SyncPeriod  int    `json:"sync_period"`  // 1 => cycle-accurate (one barrier per cycle)
	FastForward bool   `json:"fast_forward"` // skip provably idle cycles
	Seed        uint64 `json:"seed"`
}

// Config is the root simulation configuration.
type Config struct {
	Topology TopologyConfig  `json:"topology"`
	Router   RouterConfig    `json:"router"`
	Routing  RoutingConfig   `json:"routing"`
	Traffic  []TrafficConfig `json:"traffic,omitempty"`
	Memory   *MemoryConfig   `json:"memory,omitempty"`
	Power    PowerConfig     `json:"power"`
	Thermal  ThermalConfig   `json:"thermal"`
	Engine   EngineConfig    `json:"engine"`

	AvgPacketFlits int `json:"avg_packet_flits"`
	WarmupCycles   int `json:"warmup_cycles"`
	AnalyzedCycles int `json:"analyzed_cycles"`
}

// Default returns the paper's baseline configuration (Table I): an 8x8 2D
// mesh with XY routing, dynamic VC allocation, 4 VCs of 4 flits per port,
// 1 flit/cycle links, 8-flit packets, cycle-accurate synchronization.
func Default() Config {
	return Config{
		Topology: TopologyConfig{Kind: TopoMesh, Width: 8, Height: 8},
		Router: RouterConfig{
			VCsPerPort:    4,
			VCBufFlits:    4,
			LinkBandwidth: 1,
			VCAlloc:       VCADynamic,
		},
		Routing: RoutingConfig{Algorithm: RouteXY},
		Power: PowerConfig{
			BufReadPJ:   0.40,
			BufWritePJ:  0.55,
			XbarPJ:      0.85,
			ArbPJ:       0.10,
			LinkPJ:      1.20,
			LeakageMW:   1.5,
			ClockGHz:    1.0,
			EpochCycles: 10_000,
		},
		Thermal: ThermalConfig{
			AmbientC:       45.0,
			RVerticalKPerW: 8.0,
			RLateralKPerW:  2.5,
			CJPerK:         0.015,
		},
		Engine:         EngineConfig{Workers: 0, SyncPeriod: 1, Seed: 0x5EED0A11},
		AvgPacketFlits: 8,
		WarmupCycles:   200_000,
		AnalyzedCycles: 2_000_000,
	}
}

// Default1024 returns the paper's large-scale configuration: a 32x32 mesh.
func Default1024() Config {
	c := Default()
	c.Topology.Width, c.Topology.Height = 32, 32
	return c
}

// Validate checks the configuration's single fields: each value in its
// range, each node inside the topology. It does not ask what the builders
// decide — whether a name is known, whether the routing algorithm runs on
// the topology with these VCs, whether a traffic pattern fits the node
// count, whether static paths follow links and cover the traffic, whether
// the buffers fit a host. core.Plan asks them, after Validate, and is what
// "valid" means. Every error names its field (Field).
func (c *Config) Validate() error {
	t := &c.Topology
	switch t.Kind {
	case TopoLine, TopoRing:
		if t.Width < 2 {
			return Errorf("", "config: %s topology needs width >= 2, got %d", t.Kind, t.Width)
		}
	case TopoMesh, TopoTorus:
		if t.Width < 2 || t.Height < 2 {
			return Errorf("", "config: %s topology needs width,height >= 2, got %dx%d", t.Kind, t.Width, t.Height)
		}
	case TopoMeshX1, TopoMeshX1Y1, TopoMeshXCube:
		if t.Width < 2 || t.Height < 2 || t.Layers < 2 {
			return Errorf("", "config: %s topology needs width,height >= 2 and layers >= 2", t.Kind)
		}
	}
	r := &c.Router
	for _, f := range []RouterFieldError{
		{Field: "vcs_per_port", Value: r.VCsPerPort, Min: 1, Max: MaxVCsPerPort},
		{Field: "vc_buf_flits", Value: r.VCBufFlits, Min: 1, Max: noc.MaxVCBufFlits},
		{Field: "inj_vcs", Value: r.InjVCs, Min: 0, Max: MaxVCsPerPort},
		{Field: "inj_buf_flits", Value: r.InjBufFlits, Min: 0, Max: noc.MaxVCBufFlits},
	} {
		if f.Value < f.Min || f.Value > f.Max {
			return &f
		}
	}
	if r.LinkBandwidth < 1 {
		return Errorf("router/link_bandwidth", "config: link_bandwidth must be >= 1, got %d", r.LinkBandwidth)
	}
	if c.Routing.Algorithm == RouteStatic {
		if len(c.Routing.StaticPaths) == 0 {
			return Errorf("routing/static_paths", "config: static routing requires static_paths")
		}
		if err := CheckStaticPaths(c.Routing.StaticPaths, t.Nodes()); err != nil {
			return err
		}
	}
	for i := range c.Traffic {
		tc := &c.Traffic[i]
		at := func(field string) string { return fmt.Sprintf("traffic/%d/%s", i, field) }
		if tc.PacketFlits > noc.MaxPacketFlits {
			return Errorf(at("packet_flits"), "config: traffic %d: packet_flits must be at most %d, got %d", i, noc.MaxPacketFlits, tc.PacketFlits)
		}
		if tc.InjectionRate < 0 || tc.InjectionRate > 1 {
			return Errorf(at("injection_rate"), "config: injection_rate must be in [0,1], got %g", tc.InjectionRate)
		}
		if tc.Pattern == PatternHotspot && len(tc.HotNodes) == 0 {
			return Errorf(at("hot_nodes"), "config: hotspot pattern requires hot_nodes")
		}
		for _, n := range tc.HotNodes {
			if n < 0 || n >= t.Nodes() {
				return Errorf(at("hot_nodes"), "config: hot node %d outside topology", n)
			}
		}
	}
	if m := c.Memory; m != nil {
		if m.LineBytes < 4 || m.LineBytes&(m.LineBytes-1) != 0 {
			return Errorf("memory/line_bytes", "config: line_bytes must be a power of two >= 4, got %d", m.LineBytes)
		}
		if m.LineBytes > MaxLineBytes {
			return Errorf("memory/line_bytes", "config: line_bytes must be at most %d, got %d", MaxLineBytes, m.LineBytes)
		}
		if m.L1Sets < 1 || m.L1Ways < 1 {
			return Errorf("memory", "config: L1 geometry must be >= 1 set and >= 1 way")
		}
		if m.Protocol != "msi" && m.Protocol != "nuca" {
			return Errorf("memory/protocol", "config: unknown coherence protocol %q", m.Protocol)
		}
		if len(m.Controllers) == 0 {
			return Errorf("memory/controllers", "config: memory config requires at least one controller node")
		}
		for _, n := range m.Controllers {
			if n < 0 || n >= t.Nodes() {
				return Errorf("memory/controllers", "config: memory controller node %d outside topology", n)
			}
		}
	}
	e := &c.Engine
	if e.SyncPeriod < 1 {
		return Errorf("engine/sync_period", "config: sync_period must be >= 1, got %d", e.SyncPeriod)
	}
	if e.Workers < 0 {
		return Errorf("engine/workers", "config: workers must be >= 0, got %d", e.Workers)
	}
	if c.AvgPacketFlits < 1 || c.AvgPacketFlits > noc.MaxPacketFlits {
		return Errorf("avg_packet_flits", "config: avg_packet_flits must be in [1, %d], got %d", noc.MaxPacketFlits, c.AvgPacketFlits)
	}
	if c.Power.EpochCycles < 1 {
		return Errorf("power/epoch_cycles", "config: power epoch_cycles must be >= 1")
	}
	return nil
}

// FieldError is a configuration error at one field (see Field).
type FieldError struct{ Field, Msg string }

func (e *FieldError) Error() string       { return e.Msg }
func (e *FieldError) ConfigField() string { return e.Field }

// Errorf returns a *FieldError at field.
func Errorf(field, format string, args ...any) error {
	return &FieldError{field, fmt.Sprintf(format, args...)}
}

// Field returns the field err is about as a path below the configuration
// root ("router/vcs_per_port", "traffic/0/pattern",
// "routing/static_paths/3"), or "" when err concerns the machine as a
// whole. A request prefixes it with where its configuration sits.
func Field(err error) string {
	var f interface{ ConfigField() string }
	if errors.As(err, &f) {
		return f.ConfigField()
	}
	return ""
}

// MaxVCsPerPort bounds vcs_per_port and inj_vcs, as noc.MaxVCBufFlits
// bounds vc_buf_flits and inj_buf_flits: a router allocates its ingress
// state in proportion to both (noc.NewRouter), so an unbounded value asks
// for more memory than any host has, and the flit bound is also what a
// credit count, kept modulo 2^16, can tell apart. Both are far above every
// preset and test (16 VCs, 16 flits).
const MaxVCsPerPort = 64

// MaxMachineSlots bounds the flit slots of the whole machine's ingress
// buffers: nodes × ports × VCs × buffer flits, the injection port included.
// Each slot costs a 64-byte flit and its 8-byte arrival stamp
// (noc.NewRouter), so the bound is 288 MiB of router state. It is above a
// 128x128 mesh at the default geometry (1.3 M slots) and a 32x32 mesh at 16
// VCs × 16 flits (1.3 M), and it is what keeps the per-field bounds from
// multiplying into an out-of-memory: an 8x8 mesh at them would ask 18.9 M
// slots (1.3 GB), a 32x32 one 327 M (23.6 GB). A 4x4 mesh at them holds
// exactly 2^22. core.Plan counts the slots from the ports it plans.
const MaxMachineSlots = 1 << 22

// RouterFieldError names a router geometry field outside [Min, Max]; zero
// means "same as the network ports" for the inj_ fields. When Slots is
// set, the field is in range but the machine's ingress buffers would hold
// Slots flit slots, more than MaxMachineSlots, and Field names the
// geometry (network or injection) holding most of them.
type RouterFieldError struct {
	Field           string // the field's JSON name in the router section
	Value, Min, Max int
	Slots           int
}

func (e *RouterFieldError) Error() string {
	if e.Slots > 0 {
		return fmt.Sprintf("config: %s %d gives the machine's ingress buffers %d flit slots, at most %d",
			e.Field, e.Value, e.Slots, MaxMachineSlots)
	}
	return fmt.Sprintf("config: %s must be in [%d, %d], got %d", e.Field, e.Min, e.Max, e.Value)
}

func (e *RouterFieldError) ConfigField() string { return "router/" + e.Field }

// MaxLineBytes bounds line_bytes: a NUCA access names its offset within
// the line in one byte of the protocol message, which is also the
// checkpoint wire format, so a longer line would alias offsets.
const MaxLineBytes = 256

// DefaultMemory returns a baseline memory hierarchy: 32-byte lines, 4 KiB
// 4-way L1, MSI directory coherence, one controller at node 0.
func DefaultMemory() *MemoryConfig {
	return &MemoryConfig{
		LineBytes:    32,
		L1Sets:       32,
		L1Ways:       4,
		L1LatencyCyc: 1,
		Protocol:     "msi",
		Controllers:  []int{0},
		MCLatencyCyc: 50,
		MCQueueDepth: 16,
	}
}

// WriteJSON serializes the config with stable indentation.
func (c *Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Load reads and validates a JSON config file.
func Load(path string) (Config, error) {
	var c Config
	f, err := os.Open(path)
	if err != nil {
		return c, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("config: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return c, fmt.Errorf("config: %s: %w", path, err)
	}
	return c, nil
}
