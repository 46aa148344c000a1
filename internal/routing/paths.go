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

// xyPath returns the inclusive x-first path from a to b within one layer.
func xyPath(t mesh, a, b noc.NodeID) []noc.NodeID {
	path := []noc.NodeID{a}
	v := a
	for v != b {
		n := xyNext(t, v, b)
		if n == v {
			panicf("routing: xyPath stuck at %d toward %d", v, b)
		}
		path = append(path, n)
		v = n
	}
	return path
}

// yxPath returns the inclusive y-first path from a to b within one layer.
func yxPath(t mesh, a, b noc.NodeID) []noc.NodeID {
	path := []noc.NodeID{a}
	v := a
	for v != b {
		n := yxNext(t, v, b)
		if n == v {
			panicf("routing: yxPath stuck at %d toward %d", v, b)
		}
		path = append(path, n)
		v = n
	}
	return path
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
// bx on a torus row, one per direction when distances tie.
func ringLegsX(t mesh, a noc.NodeID, bx int) []ringLeg {
	ax, ay := t.XY(a)
	w := t.Width
	return ringLegs(ax, bx, w, func(x int) noc.NodeID { return t.NodeAt(x, ay) })
}

// ringLegsY is the y-dimension counterpart.
func ringLegsY(t mesh, a noc.NodeID, by int) []ringLeg {
	ax, ay := t.XY(a)
	h := t.Height
	return ringLegs(ay, by, h, func(y int) noc.NodeID { return t.NodeAt(ax, y) })
}

// ringLegs computes the shortest traversal(s) from index a to index b on
// a ring of size n; node converts a ring index to a NodeID. The dateline
// is the wrap edge between index n-1 and index 0.
func ringLegs(a, b, n int, node func(int) noc.NodeID) []ringLeg {
	if a == b {
		return []ringLeg{{path: []noc.NodeID{node(a)}, dateline: -1}}
	}
	fwd := (b - a + n) % n // steps in +1 direction
	bwd := (a - b + n) % n // steps in -1 direction
	var legs []ringLeg
	build := func(dir, steps int) ringLeg {
		leg := ringLeg{dateline: -1}
		idx := a
		leg.path = append(leg.path, node(idx))
		for s := 0; s < steps; s++ {
			next := (idx + dir + n) % n
			if (dir == 1 && idx == n-1) || (dir == -1 && idx == 0) {
				leg.dateline = s
			}
			leg.path = append(leg.path, node(next))
			idx = next
		}
		return leg
	}
	switch {
	case fwd < bwd:
		legs = append(legs, build(1, fwd))
	case bwd < fwd:
		legs = append(legs, build(-1, bwd))
	default:
		legs = append(legs, build(1, fwd), build(-1, bwd))
	}
	return legs
}
