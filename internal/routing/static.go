package routing

import "hornet/internal/noc"

// Static routes flows along explicitly configured paths — the input
// format produced by offline bandwidth-sensitive route optimizers such as
// BSOR (Kinsy et al.), which the paper lists among the schemes its tables
// express directly. Several paths may be given for one source/destination
// pair; they become weighted alternatives.
type Static struct {
	paths map[noc.FlowID][][]noc.NodeID
}

// NewStatic builds static routing from node-ID path sequences that
// core.Plan has checked: each has at least two nodes, hops only between
// neighbours and does not loop through a link, and together they cover
// every flow the machine's traffic makes.
func NewStatic(paths [][]int) *Static {
	s := &Static{paths: make(map[noc.FlowID][][]noc.NodeID)}
	for _, p := range paths {
		np := make([]noc.NodeID, len(p))
		for j, n := range p {
			np[j] = noc.NodeID(n)
		}
		f := noc.MakeFlow(np[0], np[len(np)-1], 0)
		s.paths[f] = append(s.paths[f], np)
	}
	return s
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

// Routes implements Algorithm.
func (s *Static) Routes(f noc.FlowID, b *builder) {
	// Class bits are ignored for path matching: memory traffic reuses the
	// same physical routes as class-0 flows between the same endpoints.
	key := noc.MakeFlow(f.Src(), f.Dst(), 0)
	paths := s.paths[key]
	if len(paths) == 0 {
		if f.Src() == f.Dst() {
			b.addEject(f.Src(), f.Src(), f, 1)
		}
		return
	}
	w := 1.0 / float64(len(paths))
	for _, p := range paths {
		b.addPath(p, p[0], f, w)
	}
}
