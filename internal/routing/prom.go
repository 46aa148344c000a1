package routing

import (
	"hornet/internal/noc"
	"hornet/internal/topology"
)

// PROM implements path-based, randomized, oblivious, minimal routing (Cho
// et al.): at every hop the packet chooses among the productive
// (distance-reducing) directions with propensity proportional to the
// number of remaining minimal paths through each choice, so every minimal
// path between source and destination is taken with equal probability.
//
// Deadlock avoidance uses a Duato-style escape channel: VC 0 is reserved
// for hops that follow the (deadlock-free) XY route, while the remaining
// VCs are available on every minimal hop. Combined with the router's
// periodic re-route of packets stuck in VC allocation, a blocked packet
// eventually reaches the escape subnetwork.
type PROM struct {
	topo *topology.Topology
}

// NewPROM returns PROM routing over a mesh.
func NewPROM(t *topology.Topology) *PROM { return &PROM{topo: t} }

// Name implements Algorithm.
func (p *PROM) Name() string { return "prom" }

// Adaptive implements Algorithm: PROM is oblivious; choices are sampled
// by weight, not by congestion.
func (p *PROM) Adaptive() bool { return false }

// Class implements Algorithm: hops that coincide with the XY route may
// use any VC including the escape channel; other minimal hops must avoid
// VC 0.
func (p *PROM) Class(node, prev noc.NodeID, flow noc.FlowID, next noc.NodeID, nextFlow noc.FlowID) Class {
	if next == xyNext(p.topo, node, flow.Dst()) {
		return ClassAny
	}
	return ClassNonEscape
}

// Routes implements Algorithm: for every node in the minimal
// rectangle and every neighbour a minimal route arrives from, weighted
// productive next hops; weights count the minimal paths remaining beyond
// each candidate hop.
func (p *PROM) Routes(f noc.FlowID, b *builder) {
	t := p.topo
	src, dst := f.Src(), f.Dst()
	if src == dst {
		b.addEject(src, src, f, 1)
		return
	}
	sx, sy := t.XY(src)
	dx, dy := t.XY(dst)
	x0, x1 := minmax(sx, dx)
	y0, y1 := minmax(sy, dy)
	stepX := 1
	if dx < sx {
		stepX = -1
	}
	stepY := 1
	if dy < sy {
		stepY = -1
	}
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			v := t.NodeAt(x, y)
			remX := absInt(dx - x)
			remY := absInt(dy - y)
			var prevs [2]noc.NodeID
			for _, prev := range minimalPrevs(prevs[:0], t, src, v, stepX, stepY) {
				if v == dst {
					b.addEject(v, prev, f, 1)
					continue
				}
				if remX > 0 {
					next := t.NodeAt(x+stepX, y)
					b.add(v, prev, f, next, f, minPaths(remX-1, remY))
				}
				if remY > 0 {
					next := t.NodeAt(x, y+stepY)
					b.add(v, prev, f, next, f, minPaths(remX, remY-1))
				}
			}
		}
	}
}

// minimalPrevs appends to prevs the nodes a minimal route from src can
// reach v from, one table line each: src itself when v is the source
// (local injection), and the neighbour one step back toward src in each
// dimension v lies away from src in (steps are the signed directions from
// src toward the destination). There are at most two.
func minimalPrevs(prevs []noc.NodeID, t mesh, src, v noc.NodeID, stepX, stepY int) []noc.NodeID {
	sx, sy := t.XY(src)
	x, y := t.XY(v)
	if v == src {
		prevs = append(prevs, v)
	}
	if x != sx {
		prevs = append(prevs, t.NodeAt(x-stepX, y))
	}
	if y != sy {
		prevs = append(prevs, t.NodeAt(x, y-stepY))
	}
	return prevs
}

// minPaths returns the number of minimal lattice paths covering the given
// remaining x and y hop counts: C(rx+ry, rx).
func minPaths(rx, ry int) float64 {
	// Multiplicative binomial; exact in float64 well past 32x32 meshes'
	// 62-hop diagonals for weight-ratio purposes.
	n := rx + ry
	k := rx
	if ry < k {
		k = ry
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
