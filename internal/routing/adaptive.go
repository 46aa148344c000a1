package routing

import (
	"hornet/internal/noc"
	"hornet/internal/topology"
)

// WestFirst is minimal turn-model adaptive routing (Glass & Ni): a packet
// whose destination lies to the west travels the full westward distance
// first (deterministically); all remaining productive directions (east,
// north, south) are then chosen adaptively. Prohibiting the two
// turns-into-west breaks every cycle, so the scheme is deadlock-free on a
// mesh with any number of VCs. The router selects among the candidate
// entries by downstream congestion (Adaptive() == true).
type WestFirst struct {
	topo *topology.Topology
}

// NewWestFirst returns west-first adaptive routing over a mesh.
func NewWestFirst(t *topology.Topology) *WestFirst { return &WestFirst{topo: t} }

// Name implements Algorithm.
func (w *WestFirst) Name() string { return "adaptive" }

// Adaptive implements Algorithm.
func (w *WestFirst) Adaptive() bool { return true }

// Class implements Algorithm: the turn model needs no VC partitioning.
func (w *WestFirst) Class(node, prev noc.NodeID, flow noc.FlowID, next noc.NodeID, nextFlow noc.FlowID) Class {
	return ClassAny
}

// Routes implements Algorithm. A destination to the west leaves no
// choice: west to its column, then along it, which is the x-first path.
// Otherwise every node of the minimal rectangle gets the turn-model-legal
// productive hops (east, and north or south), for every neighbour a
// minimal route arrives from.
func (w *WestFirst) Routes(f noc.FlowID, b *builder) {
	t := w.topo
	src, dst := f.Src(), f.Dst()
	if src == dst {
		b.addEject(src, src, f, 1)
		return
	}
	sx, sy := t.XY(src)
	dx, dy := t.XY(dst)
	if dx < sx {
		b.addPath(b.path(t, src, dst, xyNext), src, f, 1)
		return
	}
	stepY := 1
	if dy < sy {
		stepY = -1
	}
	y0, y1 := minmax(sy, dy)
	for y := y0; y <= y1; y++ {
		for x := sx; x <= dx; x++ {
			v := t.NodeAt(x, y)
			var prevs [2]noc.NodeID
			for _, prev := range minimalPrevs(prevs[:0], t, src, v, 1, stepY) {
				if v == dst {
					b.addEject(v, prev, f, 1)
					continue
				}
				if dx > x {
					b.add(v, prev, f, t.NodeAt(x+1, y), f, 1)
				}
				if dy > y {
					b.add(v, prev, f, t.NodeAt(x, y+1), f, 1)
				}
				if dy < y {
					b.add(v, prev, f, t.NodeAt(x, y-1), f, 1)
				}
			}
		}
	}
}
