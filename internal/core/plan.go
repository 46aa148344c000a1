package core

import (
	"cmp"
	"fmt"
	"slices"

	"hornet/internal/config"
	"hornet/internal/noc"
	"hornet/internal/routing"
	"hornet/internal/topology"
	"hornet/internal/traffic"
	"hornet/internal/vca"
)

// MachinePlan is everything about a machine but its buffers: what New
// builds, worked out once.
type MachinePlan struct {
	Config  config.Config
	Topo    *topology.Topology
	Alg     routing.Algorithm
	VCA     *vca.Tables
	VCAMode noc.VCAMode
	// Ports lists each node's network ports: every topology edge, in edge
	// order, gives each of its two routers a port facing the other.
	// EdgePorts[i] is edge i's port index on its A and on its B router
	// (the injection port is index 0).
	Ports     [][]noc.PortParams
	EdgePorts [][2]int
	// InjVCs and InjBufFlits are the injection port's geometry, a zero
	// field resolved to the network ports' value.
	InjVCs, InjBufFlits int
	// Slots counts the flit slots of every ingress buffer, injection
	// ports included; at most config.MaxMachineSlots.
	Slots int
	// Patterns holds one pattern per Config.Traffic entry.
	Patterns []traffic.Pattern
}

// Plan works out the machine cfg describes, allocating none of its
// buffers, or returns the first reason it cannot be built: what "valid"
// means for a configuration. It runs cfg.Validate, then asks the builders
// — topology, routing, VC allocation, traffic — and holds static paths to
// the machine.
// Every error names its field (config.Field).
func Plan(cfg config.Config) (*MachinePlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	r := cfg.Router
	p := &MachinePlan{Config: cfg, Topo: topo,
		InjVCs: cmp.Or(r.InjVCs, r.VCsPerPort), InjBufFlits: cmp.Or(r.InjBufFlits, r.VCBufFlits)}
	n := topo.Nodes()
	p.Ports = make([][]noc.PortParams, n)
	for i := range p.Ports {
		p.Ports[i] = make([]noc.PortParams, 0, len(topo.Neighbors(noc.NodeID(i))))
	}
	addPort := func(node, peer noc.NodeID) int {
		p.Ports[node] = append(p.Ports[node], noc.PortParams{Neighbor: peer, VCs: r.VCsPerPort, BufFlits: r.VCBufFlits})
		return len(p.Ports[node])
	}
	network, injection := 0, n*p.InjVCs*p.InjBufFlits
	for _, e := range topo.Edges() {
		p.EdgePorts = append(p.EdgePorts, [2]int{addPort(e.A, e.B), addPort(e.B, e.A)})
		network += 2 * r.VCsPerPort * r.VCBufFlits
	}
	if p.Slots = network + injection; p.Slots > config.MaxMachineSlots {
		if injection > network {
			return nil, &config.RouterFieldError{Field: "inj_buf_flits", Value: p.InjBufFlits, Slots: p.Slots}
		}
		return nil, &config.RouterFieldError{Field: "vc_buf_flits", Value: r.VCBufFlits, Slots: p.Slots}
	}
	if p.Alg, err = buildAlgorithm(cfg, topo); err != nil {
		return nil, err
	}
	if p.VCA, p.VCAMode, err = vca.New(p.Alg, r.VCAlloc); err != nil {
		return nil, config.Errorf("router/vc_alloc", "%v", err)
	}
	for i, tc := range cfg.Traffic {
		pat, err := traffic.NewPattern(tc, topo)
		if err != nil {
			return nil, config.Errorf(fmt.Sprintf("traffic/%d/%s", i, config.Field(err)), "%v", err)
		}
		p.Patterns = append(p.Patterns, pat)
	}
	if cfg.Routing.Algorithm == config.RouteStatic {
		return p, p.checkStaticPaths()
	}
	return p, nil
}

// checkStaticPaths holds static paths to the machine: each hop joins
// neighbours, and every flow the traffic makes has a path. Tables are
// addressed by <prev_node, flow> (paper §II-A2), so a hop no link
// carries, or a flow no path covers, has no table entry, and its first
// flit stops the router that looks it up. A machine without traffic
// entries runs a workload or a trace, which may send from any node to any
// other. The cost is O(paths + nodes) per traffic entry.
func (p *MachinePlan) checkStaticPaths() error {
	topo, paths := p.Topo, p.Config.Routing.StaticPaths
	adjacent := func(a, b int) bool { return slices.Contains(topo.Neighbors(noc.NodeID(a)), noc.NodeID(b)) }
	if err := config.CheckStaticHops(paths, adjacent); err != nil {
		return err
	}
	n := topo.Nodes()
	covered := map[[2]int]bool{}
	dsts := make([]int, n) // distinct destinations covered from each source
	for _, path := range paths {
		if k := [2]int{path[0], path[len(path)-1]}; k[0] != k[1] && !covered[k] {
			covered[k] = true
			dsts[k[0]]++
		}
	}
	for i := range max(len(p.Patterns), 1) {
		var pat traffic.Pattern // none: a workload or trace
		what := "a workload or trace"
		if len(p.Patterns) > 0 {
			pat, what = p.Patterns[i], fmt.Sprintf("traffic %d (%s)", i, p.Config.Traffic[i].Pattern)
		}
		partner, perm := traffic.Partner(pat)
		for src := range n {
			lo, hi := 0, n // every other node, unless a permutation names one
			if perm {
				lo = partner(src)
				hi = lo + 1
			} else if dsts[src] == n-1 {
				continue
			}
			for dst := lo; dst < hi; dst++ {
				if dst != src && !covered[[2]int{src, dst}] {
					return config.Errorf("routing/static_paths", "config: %s sends from %d to %d, which no static path covers", what, src, dst)
				}
			}
		}
	}
	return nil
}

// buildAlgorithm instantiates the routing algorithm and holds it to the
// geometry and router resources: every algorithm but xy and yx routes a
// single-layer mesh or line only, and the VCs per port must cover the
// classes it separates (two phases, or a dateline).
func buildAlgorithm(cfg config.Config, topo *topology.Topology) (routing.Algorithm, error) {
	name, wraps := cfg.Routing.Algorithm, topo.IsTorus() || topo.IsMultilayer()
	var alg routing.Algorithm
	meshOnly, vcs := true, 2
	switch name {
	case config.RouteXY, config.RouteYX:
		alg, meshOnly, vcs = routing.NewXY(topo), false, 1
		if name == config.RouteYX {
			alg = routing.NewYX(topo)
		}
		if wraps {
			vcs = 2 // the dateline's classes
		}
	case config.RouteO1Turn:
		alg = routing.NewO1Turn(topo)
	case config.RouteROMM:
		alg = routing.NewROMM(topo)
	case config.RouteValiant:
		alg = routing.NewValiant(topo)
	case config.RoutePROM:
		alg = routing.NewPROM(topo)
	case config.RouteAdaptive:
		alg, vcs = routing.NewWestFirst(topo), 1
	case config.RouteStatic:
		return routing.NewStatic(cfg.Routing.StaticPaths), nil
	default:
		return nil, config.Errorf("routing/algorithm", "core: unknown routing algorithm %q", name)
	}
	if meshOnly && wraps {
		return nil, config.Errorf("routing/algorithm", "core: %s routing requires a (single-layer) mesh or line", name)
	}
	if cfg.Router.VCsPerPort < vcs {
		return nil, config.Errorf("router/vcs_per_port", "core: %s routing needs >= %d VCs per port, got %d", name, vcs, cfg.Router.VCsPerPort)
	}
	return alg, nil
}
