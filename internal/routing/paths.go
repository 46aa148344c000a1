package routing

import (
	"hornet/internal/noc"
	"hornet/internal/topology"
)

// mesh is the geometry interface the builders consume; *topology.Topology
// satisfies it. Keeping it narrow makes the path math unit-testable with
// synthetic geometries.
type mesh = *topology.Topology

// xyNext returns the next hop of the x-first dimension-ordered route from
// v to dst on a (non-wraparound) mesh layer, or v itself when v == dst.
func xyNext(t mesh, v, dst noc.NodeID) noc.NodeID {
	vx, vy := t.XY(v)
	dx, dy := t.XY(dst)
	l := t.Layer(v)
	switch {
	case vx < dx:
		return t.NodeAtL(vx+1, vy, l)
	case vx > dx:
		return t.NodeAtL(vx-1, vy, l)
	case vy < dy:
		return t.NodeAtL(vx, vy+1, l)
	case vy > dy:
		return t.NodeAtL(vx, vy-1, l)
	}
	return v
}

// yxNext is the y-first counterpart of xyNext.
func yxNext(t mesh, v, dst noc.NodeID) noc.NodeID {
	vx, vy := t.XY(v)
	dx, dy := t.XY(dst)
	l := t.Layer(v)
	switch {
	case vy < dy:
		return t.NodeAtL(vx, vy+1, l)
	case vy > dy:
		return t.NodeAtL(vx, vy-1, l)
	case vx < dx:
		return t.NodeAtL(vx+1, vy, l)
	case vx > dx:
		return t.NodeAtL(vx-1, vy, l)
	}
	return v
}

// onXYPath reports whether node v lies on the x-first path from s to d.
func onXYPath(t mesh, s, d, v noc.NodeID) bool {
	sx, sy := t.XY(s)
	dx, dy := t.XY(d)
	vx, vy := t.XY(v)
	if t.Layer(v) != t.Layer(s) && t.Layer(v) != t.Layer(d) {
		return false
	}
	// Horizontal segment at source row, then vertical segment at dest col.
	if vy == sy && between(vx, sx, dx) {
		return true
	}
	return vx == dx && between(vy, sy, dy)
}

// onYXPath reports whether node v lies on the y-first path from s to d.
func onYXPath(t mesh, s, d, v noc.NodeID) bool {
	sx, sy := t.XY(s)
	dx, dy := t.XY(d)
	vx, vy := t.XY(v)
	if vx == sx && between(vy, sy, dy) {
		return true
	}
	return vy == dy && between(vx, sx, dx)
}

func between(v, a, b int) bool {
	if a > b {
		a, b = b, a
	}
	return a <= v && v <= b
}

// ringLeg describes one dimension-ordered traversal segment on a ring
// (used by torus routing): the node sequence and the index of the step
// that crosses the wraparound ("dateline") edge, or -1.
type ringLeg struct {
	path     []noc.NodeID
	dateline int // path[dateline] -> path[dateline+1] crosses the wrap edge
}

// ringLegsX returns the candidate x-dimension legs from a toward column
// bx on a torus row, one per direction when distances tie, in legs and
// their paths in b's node scratch.
func ringLegsX(b *builder, legs *[2]ringLeg, t mesh, a noc.NodeID, bx int) []ringLeg {
	ax, ay := t.XY(a)
	return ringLegs(b, legs, ax, bx, t.Width, func(x int) noc.NodeID { return t.NodeAt(x, ay) })
}

// ringLegsY is the y-dimension counterpart.
func ringLegsY(b *builder, legs *[2]ringLeg, t mesh, a noc.NodeID, by int) []ringLeg {
	ax, ay := t.XY(a)
	return ringLegs(b, legs, ay, by, t.Height, func(y int) noc.NodeID { return t.NodeAt(ax, y) })
}

// ringLegs computes the shortest traversal(s) from index a to index z on
// a ring of size n; node converts a ring index to a NodeID. The dateline
// is the wrap edge between index n-1 and index 0.
func ringLegs(b *builder, legs *[2]ringLeg, a, z, n int, node func(int) noc.NodeID) []ringLeg {
	fwd := (z - a + n) % n // steps in +1 direction
	bwd := (a - z + n) % n // steps in -1 direction
	build := func(dir, steps int) ringLeg {
		leg := ringLeg{dateline: -1}
		start := len(b.nodes)
		idx := a
		b.nodes = append(b.nodes, node(idx))
		for s := 0; s < steps; s++ {
			next := (idx + dir + n) % n
			if (dir == 1 && idx == n-1) || (dir == -1 && idx == 0) {
				leg.dateline = s
			}
			b.nodes = append(b.nodes, node(next))
			idx = next
		}
		leg.path = b.nodes[start:len(b.nodes):len(b.nodes)]
		return leg
	}
	switch {
	case fwd < bwd || fwd == 0: // fwd == 0: a is z, a leg of no step
		legs[0] = build(1, fwd)
		return legs[:1]
	case bwd < fwd:
		legs[0] = build(-1, bwd)
		return legs[:1]
	}
	legs[0] = build(1, fwd)
	legs[1] = build(-1, bwd)
	return legs[:2]
}
