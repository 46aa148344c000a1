// Package vca builds HORNET's table-driven virtual-channel allocation
// (paper §II-A3). A VCA lookup is addressed by <prev_node, flow,
// next_node, next_flow> and yields a weighted set of candidate VCs; the
// candidate set combines the routing algorithm's deadlock-avoidance VC
// class for the hop (e.g. O1TURN's per-subroute sets, ROMM/Valiant's
// per-phase sets, PROM's escape channel) with the configured allocation
// discipline:
//
//   - dynamic: every class-legal VC, equal weight;
//   - static-set: a deterministic per-flow subset of the class-legal VCs
//     (Shim et al.'s static VCA);
//   - EDVCA and FAA: same candidate sets as dynamic — their exclusivity
//     and flow-affinity rules are enforced at allocation time by the
//     router, as they depend on downstream buffer contents.
package vca

import (
	"hornet/internal/config"
	"hornet/internal/noc"
	"hornet/internal/routing"
)

// Classifier abstracts the routing algorithm's per-hop VC class rule.
type Classifier interface {
	Class(node, prev noc.NodeID, flow noc.FlowID, next noc.NodeID, nextFlow noc.FlowID) routing.Class
}

// Tables produces per-node VCA tables for a fixed classifier and mode.
type Tables struct {
	classifier Classifier
	mode       noc.VCAMode
}

// New builds VCA tables for the given routing classifier and configured
// allocation policy name (config.VCA* constants).
func New(classifier Classifier, policy string) (*Tables, noc.VCAMode, error) {
	var mode noc.VCAMode
	switch policy {
	case config.VCADynamic:
		mode = noc.VCADynamic
	case config.VCAStaticSet:
		mode = noc.VCAStaticSet
	case config.VCAEDVCA:
		mode = noc.VCAEDVCA
	case config.VCAFAA:
		mode = noc.VCAFAA
	default:
		return nil, 0, errUnknownPolicy(policy)
	}
	return &Tables{classifier: classifier, mode: mode}, mode, nil
}

type errUnknownPolicy string

func (e errUnknownPolicy) Error() string { return "vca: unknown policy " + string(e) }

// ForNode returns the node-local VCA table.
func (t *Tables) ForNode(n noc.NodeID) noc.VCATable {
	return &nodeVCA{tables: t, node: n}
}

type nodeVCA struct {
	tables *Tables
	node   noc.NodeID
	// scratch avoids per-lookup allocation; tables are per-node and only
	// used by the worker stepping the owning tile, one worker at a time,
	// handed over only at the barrier.
	scratch []noc.VCChoice
}

// Candidates implements noc.VCATable.
func (nv *nodeVCA) Candidates(prev noc.NodeID, flow noc.FlowID, next noc.NodeID, nextFlow noc.FlowID, numVCs int) []noc.VCChoice {
	t := nv.tables
	class := t.classifier.Class(nv.node, prev, flow, next, nextFlow)
	lo, hi := classRange(class, numVCs)
	nv.scratch = nv.scratch[:0]
	if t.mode == noc.VCAStaticSet {
		// Static set VCA: the VC is a deterministic function of the flow
		// ID within the class-legal range. Mix the ID so flows differing
		// only in high bits (source) still spread across VCs.
		span := hi - lo
		vc := lo + int(mix32(uint32(flow.Base()))%uint32(span))
		nv.scratch = append(nv.scratch, noc.VCChoice{VC: vc, Weight: 1})
		return nv.scratch
	}
	for vc := lo; vc < hi; vc++ {
		nv.scratch = append(nv.scratch, noc.VCChoice{VC: vc, Weight: 1})
	}
	return nv.scratch
}

// mix32 is a finalizer-style avalanche hash (murmur3 fmix32).
func mix32(v uint32) uint32 {
	v ^= v >> 16
	v *= 0x85EBCA6B
	v ^= v >> 13
	v *= 0xC2B2AE35
	v ^= v >> 16
	return v
}

// classRange maps a routing VC class to the concrete index range [lo, hi)
// within a numVCs-channel port. With a single VC every class collapses to
// it (configurations needing real partitioning are validated upstream).
func classRange(class routing.Class, numVCs int) (int, int) {
	if numVCs == 1 {
		return 0, 1
	}
	switch class {
	case routing.ClassLo:
		return 0, numVCs / 2
	case routing.ClassHi:
		return numVCs / 2, numVCs
	case routing.ClassEscape:
		return 0, 1
	case routing.ClassNonEscape:
		return 1, numVCs
	default:
		return 0, numVCs
	}
}
