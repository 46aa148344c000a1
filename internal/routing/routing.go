// Package routing implements HORNET's table-driven routing (paper
// §II-A2): per-node tables addressed by <prev_node, flow_id> yielding
// weighted next-hop sets with optional flow renaming, plus builders for
// XY/YX dimension-ordered routing, O1TURN, two-phase ROMM and Valiant
// (with the paper's intermediate-hop flow-renaming scheme), PROM,
// explicit static (BSOR-style) routes, and west-first turn-model adaptive
// routing. Tables are built lazily per flow, so large meshes only pay for
// flows that actually exist, and their lines are shared by content: every
// forwarding entry is linked to the line its next hop routes by
// (noc.RouteEntry.Then), and flows that take the same hop toward the same
// destination share that line.
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

// Tables is the shared, lazily built routing store for one simulated
// system. A flow's table is built on its first lookup, and its lines are
// interned by content: a line that two flows (or two nodes of one flow)
// would hold alike is stored once, so the store grows with distinct lines,
// not flows × hops. Per flow it keeps only the first-hop line, the one at
// <src, src, flow>; every other line of the flow is reached from there
// along Then. It is safe for concurrent use: building is deterministic and
// a line never changes once stored, so every thread observes identical
// tables.
type Tables struct {
	alg Algorithm

	mu    sync.Mutex
	first map[noc.FlowID]*noc.RouteLine // base flow -> first-hop line; nil: the flow has no route
	lines lineSet
}

// NewTables wraps an algorithm in a shared lazy table store.
func NewTables(alg Algorithm) *Tables {
	return &Tables{alg: alg, first: make(map[noc.FlowID]*noc.RouteLine), lines: newLineSet()}
}

// firstLine returns base's first-hop line, building base's table on first
// use. The algorithm runs outside the lock; two threads that build the
// same flow at once would intern the same lines, and the second finds the
// first's published.
func (t *Tables) firstLine(base noc.FlowID) *noc.RouteLine {
	t.mu.Lock()
	l, ok := t.first[base]
	t.mu.Unlock()
	if ok {
		return l
	}
	routes := t.alg.FlowEntries(base)
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.first[base]; ok {
		return l
	}
	in := interning{base: base, routes: routes, set: &t.lines, done: make(map[EntryKey]*noc.RouteLine, len(routes))}
	for k := range routes {
		if k.Flow.Base() != base {
			panicf("routing: flow %v has a table line for flow %v", base, k.Flow)
		}
		in.line(k)
	}
	src := base.Src()
	l = in.done[EntryKey{Node: src, Prev: src, Flow: base}]
	t.first[base] = l
	return l
}

// interning canonicalizes one flow's routes children-first: a line is
// interned once the lines its entries link are, so its content — entries'
// Next, phase bit, Weight and linked line — names it completely.
type interning struct {
	base   noc.FlowID
	routes FlowRoutes
	set    *lineSet
	done   map[EntryKey]*noc.RouteLine // nil while the key's children are interned
	buf    []noc.RouteEntry
}

// line returns the interned line at k, interning its children first. Every
// forwarding entry links the line at <entry.Next, k.Node, leaving flow>, or
// nil if the flow has none there (the router reports "no route" if a flit
// ever gets that far). A key met again while its children are interned is a
// cycle: no algorithm builds one, and config rejects the static paths that
// would.
func (in *interning) line(k EntryKey) *noc.RouteLine {
	if l, ok := in.done[k]; ok {
		if l == nil {
			panicf("routing: flow %v: its table lines loop through <%d, %d, %v>", in.base, k.Node, k.Prev, k.Flow)
		}
		return l
	}
	in.done[k] = nil
	es := in.routes[k]
	for _, e := range es {
		if next, ok := in.next(k, e); ok {
			in.line(next)
		}
	}
	start := len(in.buf)
	for _, e := range es {
		if next, ok := in.next(k, e); ok {
			e.Then = in.done[next]
		}
		in.buf = append(in.buf, e)
	}
	l := in.set.intern(in.buf[start:])
	in.buf = in.buf[:start]
	in.done[k] = l
	return l
}

// next returns the key of the line e's next router routes by, unless e
// ejects or the flow has no line there.
func (in *interning) next(k EntryKey, e noc.RouteEntry) (EntryKey, bool) {
	next := EntryKey{Node: e.Next, Prev: k.Node, Flow: e.NextFlow(k.Flow)}
	_, ok := in.routes[next]
	return next, ok && e.Next != k.Node
}

// line returns the line at node for a flow arriving from prev, or nil if
// the algorithm never routes that flow through it. A flow's first hop is
// one map read; any other line is found by walking the flow's lines from
// its first hop along Then, carrying each line's node (find).
func (t *Tables) line(node, prev noc.NodeID, flow noc.FlowID) *noc.RouteLine {
	first := t.firstLine(flow.Base())
	src := flow.Src()
	if node == src && prev == src && !flow.Phase2() {
		return first
	}
	if first == nil {
		return nil
	}
	return find(first, src, node, prev, flow.Phase2())
}

// find walks a flow's lines from its first-hop line at src along Then to
// the line at node for the flow arriving from prev in the given phase, or
// nil if the walk never reaches it. A line reached at one node links the
// same lines whichever way it was reached, so each (node, line) is expanded
// once: the walk costs the flow's line count, not its path count.
func find(first *noc.RouteLine, src, node, prev noc.NodeID, phase2 bool) *noc.RouteLine {
	type at struct {
		node noc.NodeID
		line *noc.RouteLine
	}
	stack := []at{{src, first}}
	seen := map[at]bool{stack[0]: true}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := range cur.line.Entries {
			e := &cur.line.Entries[i]
			if e.Next == cur.node || e.Then == nil {
				continue
			}
			if cur.node == prev && e.Next == node && e.Phase2 == phase2 {
				return e.Then
			}
			if next := (at{e.Next, e.Then}); !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return nil
}

// Lookup returns the weighted next-hop set at node for a flow arriving
// from prev, or nil if the algorithm never routes that flow through that
// table line (a configuration or builder bug, which the router reports).
func (t *Tables) Lookup(node, prev noc.NodeID, flow noc.FlowID) []noc.RouteEntry {
	if l := t.line(node, prev, flow); l != nil {
		return l.Entries
	}
	return nil
}

// ForNode returns the node-local view implementing noc.RouteTable.
func (t *Tables) ForNode(n noc.NodeID) noc.RouteTable {
	return &nodeTable{tables: t, node: n}
}

// recentLines is the size of a node's cache of recently served lines. The
// shared store is the only store; the cache is fixed-size so that traffic
// which keeps discovering lines (all-to-all) cannot grow a second one.
const recentLines = 64

// nodeTable is one node's view of the shared store. A router asks it only
// for the line of a flit that carries none — mostly a packet's first hop —
// and it is only queried from its node's worker thread, so it keeps the
// lines it served last in a direct-mapped cache keyed by prev<<32|flow;
// the lines are the shared store's own. Without the cache the 8x8 uniform
// mesh ran ~3 % slower per tile-cycle (BenchmarkUniformMeshCycle, 12 of 16
// alternating pairs).
type nodeTable struct {
	tables *Tables
	node   noc.NodeID
	recent [recentLines]struct {
		key  uint64         // prev<<32|flow
		line *noc.RouteLine // nil: the slot is empty
	}
}

func (nt *nodeTable) Lookup(prev noc.NodeID, flow noc.FlowID) *noc.RouteLine {
	key := uint64(uint32(prev))<<32 | uint64(flow)
	// Source, destination and arrival direction all vary across the lines
	// one node serves; fold them into the index (FlowID keeps the source
	// 14 bits above the destination).
	e := &nt.recent[(uint32(flow)^uint32(flow)>>14^uint32(prev)*5)%recentLines]
	if e.key != key || e.line == nil {
		e.key, e.line = key, nt.tables.line(nt.node, prev, flow)
	}
	return e.line
}

// Line resolves a line number handed out by any node's view of the store.
func (nt *nodeTable) Line(id uint32) *noc.RouteLine { return nt.tables.lines.line(id) }

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
	if nextFlow.Base() != flow.Base() {
		panicf("routing: flow %v renamed to %v: renaming may change only the phase bit", flow, nextFlow)
	}
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
			entries = append(entries, noc.RouteEntry{Next: t.next, Phase2: t.nextFlow.Phase2(), Weight: m[t]})
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
