package routing

import (
	"hornet/internal/noc"
	"hornet/internal/topology"
)

// DOR is dimension-ordered (x-first or y-first) routing on meshes, tori
// (with dateline VC switching expressed through flow renaming), and
// multilayer meshes (route to the nearest inter-layer portal, change
// layers, then route within the destination layer under a renamed flow so
// the two planar legs use disjoint VC classes).
type DOR struct {
	topo   *topology.Topology
	yFirst bool
}

// NewXY returns x-first dimension-ordered routing.
func NewXY(t *topology.Topology) *DOR { return &DOR{topo: t} }

// NewYX returns y-first dimension-ordered routing.
func NewYX(t *topology.Topology) *DOR { return &DOR{topo: t, yFirst: true} }

// Name implements Algorithm.
func (d *DOR) Name() string {
	if d.yFirst {
		return "yx"
	}
	return "xy"
}

// Adaptive implements Algorithm.
func (d *DOR) Adaptive() bool { return false }

// Class implements Algorithm: tori and multilayer meshes split VCs by the
// phase bit (pre/post dateline or pre/post layer change); plain meshes
// place no restriction.
func (d *DOR) Class(node, prev noc.NodeID, flow noc.FlowID, next noc.NodeID, nextFlow noc.FlowID) Class {
	if d.topo.IsTorus() || d.topo.IsMultilayer() {
		if nextFlow.Phase2() {
			return ClassHi
		}
		return ClassLo
	}
	return ClassAny
}

// Routes implements Algorithm.
func (d *DOR) Routes(f noc.FlowID, b *builder) {
	src, dst := f.Src(), f.Dst()
	switch {
	case src == dst:
		b.addEject(src, src, f, 1)
	case d.topo.IsTorus():
		d.torusEntries(b, f, src, dst)
	case d.topo.IsMultilayer():
		d.multilayerEntries(b, f, src, dst)
	default:
		b.addPath(b.path(d.topo, src, dst, d.step()), src, f, 1)
	}
}

// step returns the planar next-hop function of the dimension order.
func (d *DOR) step() func(mesh, noc.NodeID, noc.NodeID) noc.NodeID {
	if d.yFirst {
		return yxNext
	}
	return xyNext
}

// torusEntries emits dimension-ordered torus routes: traverse the first
// dimension's ring (shortest way, both ways on a tie), renaming the flow
// when crossing the wraparound dateline, then reset the phase at the
// dimension turn and traverse the second dimension's ring the same way.
func (d *DOR) torusEntries(b *builder, f noc.FlowID, src, dst noc.NodeID) {
	dx, dy := d.topo.XY(dst)
	var firstLegs, secondLegs [2]ringLeg
	var first, second []ringLeg
	if d.yFirst {
		first = ringLegsY(b, &firstLegs, d.topo, src, dy)
	} else {
		first = ringLegsX(b, &firstLegs, d.topo, src, dx)
	}
	wFirst := 1.0 / float64(len(first))
	for _, leg1 := range first {
		end1 := leg1.path[len(leg1.path)-1]
		if d.yFirst {
			second = ringLegsX(b, &secondLegs, d.topo, end1, dx)
		} else {
			second = ringLegsY(b, &secondLegs, d.topo, end1, dy)
		}
		onlyOneDim := len(leg1.path) == 1
		if end1 == dst {
			// Degenerate second dimension: first leg reaches dst.
			prev0 := src
			b.addRingLegReset(leg1, prev0, f, wFirst, true, false)
			continue
		}
		var endPrev noc.NodeID
		var fMid noc.FlowID
		if onlyOneDim {
			endPrev, fMid = src, f
		} else {
			endPrev, fMid = b.addRingLegReset(leg1, src, f, wFirst, false, false)
		}
		w2 := wFirst / float64(len(second))
		for _, leg2 := range second {
			// Reset the phase bit at the dimension turn so the second
			// ring's dateline logic starts fresh.
			b.addRingLegReset(leg2, endPrev, fMid, w2, true, fMid.Phase2())
		}
	}
}

// addRingLegReset emits the table entries for one ring leg: flow fIn on
// entry, renamed to fIn.WithPhase2() after the dateline crossing, with an
// optional phase reset on the leg's first hop (used when turning into a
// new dimension). It returns the node before the leg's final node and the
// flow ID in effect there; last reports whether the leg ends at the flow's
// destination (emitting an ejection entry).
func (b *builder) addRingLegReset(leg ringLeg, prev0 noc.NodeID, fIn noc.FlowID, w float64, last bool, resetFirst bool) (endPrev noc.NodeID, fOut noc.FlowID) {
	f := fIn
	prev := prev0
	for i := 0; i < len(leg.path)-1; i++ {
		nf := f
		if i == 0 && resetFirst {
			nf = f.Base()
		}
		if i == leg.dateline {
			nf = nf.WithPhase2()
		}
		b.add(leg.path[i], prev, f, leg.path[i+1], nf, w)
		prev = leg.path[i]
		f = nf
	}
	if last {
		b.addEject(leg.path[len(leg.path)-1], prev, f, w)
	}
	return prev, f
}

// multilayerEntries routes across layers: planar DOR to the geometry's
// nearest portal, monotone layer traversal, then planar DOR to the
// destination under the phase-renamed flow.
func (d *DOR) multilayerEntries(b *builder, f noc.FlowID, src, dst noc.NodeID) {
	ls, ld := d.topo.Layer(src), d.topo.Layer(dst)
	if ls == ld {
		b.addPath(b.path(d.topo, src, dst, d.step()), src, f, 1)
		return
	}
	sx, sy := d.topo.XY(src)
	px, py := d.topo.Portal(sx, sy)
	pSrc := d.topo.NodeAtL(px, py, ls)
	pDst := d.topo.NodeAtL(px, py, ld)

	// Leg 1: within the source layer to the portal (flow f, class Lo).
	prev := src
	leg1 := b.path(d.topo, src, pSrc, d.step())
	for i := 0; i < len(leg1)-1; i++ {
		b.add(leg1[i], prev, f, leg1[i+1], f, 1)
		prev = leg1[i]
	}

	// Leg 2: monotone layer traversal at the portal column.
	step := 1
	if ld < ls {
		step = -1
	}
	v := pSrc
	for l := ls; l != ld; l += step {
		next := d.topo.NodeAtL(px, py, l+step)
		nf := f
		if l+step == ld {
			nf = f.WithPhase2() // rename on arriving at the last layer
		}
		b.add(v, prev, f, next, nf, 1)
		prev = v
		v = next
	}

	// Leg 3: within the destination layer under the renamed flow.
	f2 := f.WithPhase2()
	leg3 := b.path(d.topo, pDst, dst, d.step())
	if len(leg3) == 1 {
		b.addEject(pDst, prev, f2, 1)
		return
	}
	b.addPath(leg3, prev, f2, 1)
}

// O1Turn implements O1TURN routing (Seo et al.): each packet picks the XY
// or YX subroute with equal probability at the source; the two subroutes
// use disjoint VC classes for deadlock freedom. Mesh geometries only.
type O1Turn struct {
	topo *topology.Topology
}

// NewO1Turn returns O1TURN routing over a mesh.
func NewO1Turn(t *topology.Topology) *O1Turn { return &O1Turn{topo: t} }

// Name implements Algorithm.
func (o *O1Turn) Name() string { return "o1turn" }

// Adaptive implements Algorithm.
func (o *O1Turn) Adaptive() bool { return false }

// Routes implements Algorithm: the union of the XY and YX paths'
// entries, each weighted 1/2 (they merge into weight-1 entries wherever
// the paths coincide; compare paper Fig 3b).
func (o *O1Turn) Routes(f noc.FlowID, b *builder) {
	src, dst := f.Src(), f.Dst()
	if src == dst {
		b.addEject(src, src, f, 1)
		return
	}
	b.addPath(b.path(o.topo, src, dst, xyNext), src, f, 0.5)
	b.addPath(b.path(o.topo, src, dst, yxNext), src, f, 0.5)
}

// Class implements Algorithm: hops on the XY subroute use the low VC set,
// hops on the YX subroute the high set; shared hops may use either.
func (o *O1Turn) Class(node, prev noc.NodeID, flow noc.FlowID, next noc.NodeID, nextFlow noc.FlowID) Class {
	src, dst := flow.Src(), flow.Dst()
	isXY := onXYPath(o.topo, src, dst, node) && next == xyNext(o.topo, node, dst)
	isYX := onYXPath(o.topo, src, dst, node) && next == yxNext(o.topo, node, dst)
	switch {
	case isXY && isYX:
		return ClassAny
	case isXY:
		return ClassLo
	case isYX:
		return ClassHi
	}
	return ClassAny
}
