package routing

import (
	"fmt"
	"sort"

	"hornet/internal/config"
	"hornet/internal/noc"
	"hornet/internal/topology"
)

// Static routes flows along explicitly configured paths — the input
// format produced by offline bandwidth-sensitive route optimizers such as
// BSOR (Kinsy et al.), which the paper lists among the schemes its tables
// express directly. Several paths may be given for one source/destination
// pair; they become weighted alternatives.
type Static struct {
	paths map[noc.FlowID][][]noc.NodeID
}

// NewStatic builds static routing from node-ID path sequences. Each path
// must have at least two nodes, and none may stay at a node or loop
// through a link (config.CheckStaticPaths); neighbour validity is the
// router's concern (a bad path panics at simulation time with a clear
// message).
func NewStatic(paths [][]int) (*Static, error) {
	if err := config.CheckStaticPaths(paths); err != nil {
		return nil, err
	}
	s := &Static{paths: make(map[noc.FlowID][][]noc.NodeID)}
	for i, p := range paths {
		if len(p) < 2 {
			return nil, fmt.Errorf("routing: static path %d needs >= 2 nodes", i)
		}
		np := make([]noc.NodeID, len(p))
		for j, n := range p {
			np[j] = noc.NodeID(n)
		}
		f := noc.MakeFlow(np[0], np[len(np)-1], 0)
		s.paths[f] = append(s.paths[f], np)
	}
	return s, nil
}

// Name implements Algorithm.
func (s *Static) Name() string { return "static" }

// Adaptive implements Algorithm.
func (s *Static) Adaptive() bool { return false }

// Class implements Algorithm: the offline optimizer is responsible for
// deadlock freedom, so no VC restriction is imposed.
func (s *Static) Class(node, prev noc.NodeID, flow noc.FlowID, next noc.NodeID, nextFlow noc.FlowID) Class {
	return ClassAny
}

// FlowEntries implements Algorithm.
func (s *Static) FlowEntries(f noc.FlowID) FlowRoutes {
	b := newBuilder()
	// Class bits are ignored for path matching: memory traffic reuses the
	// same physical routes as class-0 flows between the same endpoints.
	key := noc.MakeFlow(f.Src(), f.Dst(), 0)
	paths := s.paths[key]
	if len(paths) == 0 {
		if f.Src() == f.Dst() {
			b.addEject(f.Src(), f.Src(), f, 1)
		}
		return b.finish()
	}
	w := 1.0 / float64(len(paths))
	for _, p := range paths {
		b.addPath(p, p[0], f, w)
	}
	return b.finish()
}

// GreedyMinMax is a small offline route selector in the spirit of BSOR:
// given the flows that will run, it assigns each flow the XY or YX path
// that minimizes the maximum channel load, processing flows in descending
// path-length order. The result feeds NewStatic / config.StaticPaths.
func GreedyMinMax(t *topology.Topology, flows []noc.FlowID) [][]int {
	type cand struct {
		flow noc.FlowID
		xy   []noc.NodeID
		yx   []noc.NodeID
	}
	cands := make([]cand, 0, len(flows))
	for _, f := range flows {
		if f.Src() == f.Dst() {
			continue
		}
		cands = append(cands, cand{
			flow: f,
			xy:   xyPath(t, f.Src(), f.Dst()),
			yx:   yxPath(t, f.Src(), f.Dst()),
		})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return len(cands[i].xy) > len(cands[j].xy)
	})
	type edge struct{ a, b noc.NodeID }
	load := make(map[edge]int)
	pathLoad := func(p []noc.NodeID) int {
		m := 0
		for i := 0; i < len(p)-1; i++ {
			if l := load[edge{p[i], p[i+1]}]; l > m {
				m = l
			}
		}
		return m
	}
	addLoad := func(p []noc.NodeID) {
		for i := 0; i < len(p)-1; i++ {
			load[edge{p[i], p[i+1]}]++
		}
	}
	var out [][]int
	for _, c := range cands {
		chosen := c.xy
		if pathLoad(c.yx) < pathLoad(c.xy) {
			chosen = c.yx
		}
		addLoad(chosen)
		ip := make([]int, len(chosen))
		for i, n := range chosen {
			ip[i] = int(n)
		}
		out = append(out, ip)
	}
	return out
}
