// Package routing implements HORNET's table-driven routing (paper
// §II-A2): per-node tables addressed by <prev_node, flow_id> yielding
// weighted next-hop sets with optional flow renaming, plus builders for
// XY/YX dimension-ordered routing, O1TURN, two-phase ROMM and Valiant
// (with the paper's intermediate-hop flow-renaming scheme), PROM,
// explicit static (BSOR-style) routes, and west-first turn-model adaptive
// routing. Tables are materialized lazily per flow and shared across
// nodes, so large meshes only pay for flows that actually exist.
package routing

import (
	"fmt"
	"sync"

	"hornet/internal/noc"
)

// EntryKey addresses one routing-table line: the node the table lives at,
// the node the packet arrived from (== Node for local injections), and
// the flow ID on arrival (including any phase renaming).
type EntryKey struct {
	Node, Prev noc.NodeID
	Flow       noc.FlowID
}

// FlowRoutes is the complete distributed routing state for one base flow:
// every table line at every node the flow can visit, in every phase.
type FlowRoutes map[EntryKey][]noc.RouteEntry

// Class partitions virtual channels for deadlock avoidance. The VC
// allocator maps classes onto concrete VC indices.
type Class uint8

const (
	// ClassAny allows every VC.
	ClassAny Class = iota
	// ClassLo allows the lower half of the VCs (first route phase /
	// XY subroute / pre-dateline).
	ClassLo
	// ClassHi allows the upper half (second phase / YX subroute /
	// post-dateline).
	ClassHi
	// ClassEscape allows only VC 0 (Duato-style escape channel).
	ClassEscape
	// ClassNonEscape allows every VC except 0.
	ClassNonEscape
)

// Algorithm is a routing scheme: it can materialize the complete table
// content for a flow, classify hops onto VC classes, and declare whether
// next-hop selection should be congestion-driven (adaptive) rather than
// weight-sampled.
type Algorithm interface {
	Name() string
	// FlowEntries builds all table lines for base flow f (f has no phase
	// bit set). Implementations must be pure: same flow, same result.
	FlowEntries(f noc.FlowID) FlowRoutes
	// Class returns the VC class for a hop from node toward next, given
	// the arriving and departing flow IDs.
	Class(node, prev noc.NodeID, flow noc.FlowID, next noc.NodeID, nextFlow noc.FlowID) Class
	// Adaptive reports whether RC should pick among entries by downstream
	// congestion instead of by weight.
	Adaptive() bool
}

// Tables is the shared, lazily materialized routing store for one
// simulated system. It is safe for concurrent use: the per-flow build is
// guarded by a sync.Once and is deterministic, so every thread observes
// identical tables.
type Tables struct {
	alg   Algorithm
	cache sync.Map // noc.FlowID (base) -> *flowOnce
}

type flowOnce struct {
	once   sync.Once
	routes FlowRoutes
}

// NewTables wraps an algorithm in a shared lazy table store.
func NewTables(alg Algorithm) *Tables {
	return &Tables{alg: alg}
}

// Algorithm returns the wrapped algorithm.
func (t *Tables) Algorithm() Algorithm { return t.alg }

// routesFor returns the flow's lines, building them on first use. The
// Load before LoadOrStore exists only so that a call for a flow already in
// the store does not allocate a &flowOnce{} it then throws away.
func (t *Tables) routesFor(f noc.FlowID) FlowRoutes {
	base := f.Base()
	v, ok := t.cache.Load(base)
	if !ok {
		v, _ = t.cache.LoadOrStore(base, &flowOnce{})
	}
	fo := v.(*flowOnce)
	fo.once.Do(func() { fo.routes = t.alg.FlowEntries(base) })
	return fo.routes
}

// Lookup returns the weighted next-hop set at node for a flow arriving
// from prev, or nil if the algorithm never routes that flow through that
// table line (a configuration or builder bug, which the router reports).
func (t *Tables) Lookup(node, prev noc.NodeID, flow noc.FlowID) []noc.RouteEntry {
	return t.routesFor(flow)[EntryKey{Node: node, Prev: prev, Flow: flow}]
}

// ForNode returns the node-local view implementing noc.RouteTable.
func (t *Tables) ForNode(n noc.NodeID) noc.RouteTable {
	return &nodeTable{tables: t, node: n}
}

// recentLines is the size of a node's cache of recently served lines. The
// shared store is the only store; the cache is fixed-size so that traffic
// which keeps discovering lines (all-to-all) cannot grow a second one.
const recentLines = 64

// nodeTable is one node's view of the shared store. A noc.RouteTable is
// only queried from its node's worker thread, so it keeps the lines it
// served last in a direct-mapped cache keyed by prev<<32|flow; the entry
// slices are the shared store's own, not copies.
type nodeTable struct {
	tables *Tables
	node   noc.NodeID
	recent [recentLines]struct {
		key     uint64           // prev<<32|flow
		entries []noc.RouteEntry // nil: the slot is empty
	}
}

func (nt *nodeTable) Lookup(prev noc.NodeID, flow noc.FlowID) []noc.RouteEntry {
	key := uint64(uint32(prev))<<32 | uint64(flow)
	// Source, destination and arrival direction all vary across the lines
	// one node serves; fold them into the index (FlowID keeps the source
	// 14 bits above the destination).
	e := &nt.recent[(uint32(flow)^uint32(flow)>>14^uint32(prev)*5)%recentLines]
	if e.key != key || e.entries == nil {
		e.key, e.entries = key, nt.tables.Lookup(nt.node, prev, flow)
	}
	return e.entries
}

func (nt *nodeTable) Adaptive() bool { return nt.tables.alg.Adaptive() }

// builder accumulates weighted table lines with entry deduplication
// (same key and same target merge by summing weights, which is how
// two-phase schemes express "several routes, one table entry", §II-A2).
type builder struct {
	acc map[EntryKey]map[target]float64
}

type target struct {
	next     noc.NodeID
	nextFlow noc.FlowID
}

func newBuilder() *builder {
	return &builder{acc: make(map[EntryKey]map[target]float64)}
}

func (b *builder) add(node, prev noc.NodeID, flow noc.FlowID, next noc.NodeID, nextFlow noc.FlowID, w float64) {
	k := EntryKey{Node: node, Prev: prev, Flow: flow}
	m := b.acc[k]
	if m == nil {
		m = make(map[target]float64)
		b.acc[k] = m
	}
	m[target{next: next, nextFlow: nextFlow}] += w
}

// addEject records delivery at node (Next == node means "eject here").
func (b *builder) addEject(node, prev noc.NodeID, flow noc.FlowID, w float64) {
	b.add(node, prev, flow, node, flow.Base(), w)
}

func (b *builder) finish() FlowRoutes {
	out := make(FlowRoutes, len(b.acc))
	for k, m := range b.acc {
		entries := make([]noc.RouteEntry, 0, len(m))
		// Deterministic order: sort targets so parallel builds and
		// repeated runs produce identical entry slices (the router's
		// weighted pick indexes into this slice).
		keys := make([]target, 0, len(m))
		for t := range m {
			keys = append(keys, t)
		}
		sortTargets(keys)
		for _, t := range keys {
			entries = append(entries, noc.RouteEntry{Next: t.next, NextFlow: t.nextFlow, Weight: m[t]})
		}
		out[k] = entries
	}
	return out
}

func sortTargets(ts []target) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && lessTarget(ts[j], ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func lessTarget(a, b target) bool {
	if a.next != b.next {
		return a.next < b.next
	}
	return a.nextFlow < b.nextFlow
}

// addPath records a deterministic path (inclusive of both endpoints) for
// flow f with the given weight: forwarding entries at every hop and an
// ejection entry at the end. prev0 seeds the first key (the source itself
// for injected packets, or the upstream node when the path is a
// continuation leg).
func (b *builder) addPath(path []noc.NodeID, prev0 noc.NodeID, f noc.FlowID, w float64) {
	if len(path) == 0 {
		return
	}
	prev := prev0
	for i := 0; i < len(path)-1; i++ {
		b.add(path[i], prev, f, path[i+1], f, w)
		prev = path[i]
	}
	b.addEject(path[len(path)-1], prev, f, w)
}

func panicf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}
