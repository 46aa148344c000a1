package routing

import (
	"hornet/internal/noc"
	"hornet/internal/topology"
)

// TwoPhase implements the paper's two-phase probabilistic oblivious
// schemes (§II-A2): route first to a random intermediate node by XY, then
// to the destination by XY. The flow is renamed (phase bit) at the
// intermediate node and renamed back at the destination; entries with
// different intermediate destinations but the same next hop merge into
// one weighted table line, with weights proportional to the number of
// intermediate choices routed each way — reproducing the paper's node-4
// worked example exactly.
//
// With the intermediate drawn from the minimal rectangle this is two-phase
// ROMM (Nesson & Johnsson); drawn from the whole mesh it is Valiant.
type TwoPhase struct {
	topo    *topology.Topology
	valiant bool
}

// NewROMM returns two-phase ROMM routing over a mesh.
func NewROMM(t *topology.Topology) *TwoPhase { return &TwoPhase{topo: t} }

// NewValiant returns Valiant routing over a mesh.
func NewValiant(t *topology.Topology) *TwoPhase { return &TwoPhase{topo: t, valiant: true} }

// Name implements Algorithm.
func (tp *TwoPhase) Name() string {
	if tp.valiant {
		return "valiant"
	}
	return "romm"
}

// Adaptive implements Algorithm.
func (tp *TwoPhase) Adaptive() bool { return false }

// Class implements Algorithm: phase-1 hops use the low VC set, phase-2
// (renamed) hops the high set, giving each phase its own deadlock-free
// XY subnetwork (paper §II-A3).
func (tp *TwoPhase) Class(node, prev noc.NodeID, flow noc.FlowID, next noc.NodeID, nextFlow noc.FlowID) Class {
	if nextFlow.Phase2() {
		return ClassHi
	}
	return ClassLo
}

// intermediates returns the candidate intermediate nodes for a flow, in
// b's node scratch.
func (tp *TwoPhase) intermediates(b *builder, src, dst noc.NodeID) []noc.NodeID {
	t := tp.topo
	start := len(b.nodes)
	if tp.valiant {
		for i := 0; i < t.Nodes(); i++ {
			b.nodes = append(b.nodes, noc.NodeID(i))
		}
	} else {
		sx, sy := t.XY(src)
		dx, dy := t.XY(dst)
		x0, x1 := minmax(sx, dx)
		y0, y1 := minmax(sy, dy)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				b.nodes = append(b.nodes, t.NodeAt(x, y))
			}
		}
	}
	return b.nodes[start:len(b.nodes):len(b.nodes)]
}

// Routes implements Algorithm.
func (tp *TwoPhase) Routes(f noc.FlowID, b *builder) {
	src, dst := f.Src(), f.Dst()
	if src == dst {
		b.addEject(src, src, f, 1)
		return
	}
	inters := tp.intermediates(b, src, dst)
	w := 1.0 / float64(len(inters))
	f2 := f.WithPhase2()
	for _, m := range inters {
		switch m {
		case dst:
			// Phase 1 runs all the way to the destination; the packet is
			// delivered there still under its original flow ID.
			b.addPath(b.path(tp.topo, src, dst, xyNext), src, f, w)
		case src:
			// The packet starts in phase 2 immediately: the source table
			// line renames the flow on its first hop.
			p2 := b.path(tp.topo, src, dst, xyNext)
			b.add(src, src, f, p2[1], f2, w)
			b.addPath(p2[1:], src, f2, w)
		default:
			p1 := b.path(tp.topo, src, m, xyNext)
			prev := src
			for i := 0; i < len(p1)-2; i++ {
				b.add(p1[i], prev, f, p1[i+1], f, w)
				prev = p1[i]
			}
			// Renaming entry at the intermediate node m: forward into
			// phase 2 under the renamed flow.
			p2 := b.path(tp.topo, m, dst, xyNext)
			b.add(p1[len(p1)-2], prev, f, m, f, w)
			b.add(m, p1[len(p1)-2], f, p2[1], f2, w)
			b.addPath(p2[1:], m, f2, w)
		}
	}
}

func minmax(a, b int) (int, int) {
	if a > b {
		return b, a
	}
	return a, b
}
