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
//
// An algorithm builds a flow by emitting entries into a builder the store
// lends it (Algorithm.Routes). Entries a flow emits more than once for one
// line and one next hop merge into one entry whose weight is their sum,
// taken in emission order; a line's entries are ordered by next hop, then
// phase bit. The builder is a flat list of records that the store reuses
// from flow to flow, so once its scratch is warm a flow's build allocates
// nothing but the lines the store keeps.
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

// Algorithm is a routing scheme: it can emit the complete table content
// for a flow, classify hops onto VC classes, and declare whether next-hop
// selection should be congestion-driven (adaptive) rather than
// weight-sampled.
type Algorithm interface {
	Name() string
	// Routes emits every table line of base flow f (f has no phase bit
	// set) into b, through b's add, addEject, addPath and addRingLegReset;
	// b is empty on entry and belongs to the caller. The builder merges
	// repeated entries by summing their weights in emission order and
	// orders a line's entries by next hop, then phase bit. Implementations
	// must be pure: same flow, same emissions in the same order.
	Routes(f noc.FlowID, b *builder)
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
	idle  []*builder // builders no build holds: one per thread that built at once, at most
}

// NewTables wraps an algorithm in a shared lazy table store.
func NewTables(alg Algorithm) *Tables {
	return &Tables{alg: alg, first: make(map[noc.FlowID]*noc.RouteLine), lines: newLineSet()}
}

// firstLine returns base's first-hop line, building base's table on first
// use.
func (t *Tables) firstLine(base noc.FlowID) *noc.RouteLine {
	t.mu.Lock()
	l, ok := t.first[base]
	t.mu.Unlock()
	if ok {
		return l
	}
	return t.build(base)
}

// build builds base's table and returns its first-hop line. The algorithm
// runs, and its records are grouped, outside the lock, in a builder taken
// from the idle list, so two threads build two flows at once; two threads
// that build the same flow at once would intern the same lines, and the
// second finds the first's published.
func (t *Tables) build(base noc.FlowID) *noc.RouteLine {
	t.mu.Lock()
	var b *builder
	if n := len(t.idle); n > 0 {
		b, t.idle = t.idle[n-1], t.idle[:n-1]
	} else {
		b = new(builder)
	}
	t.mu.Unlock()
	b.build(t.alg, base)
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.first[base]
	if !ok {
		l = b.intern(&t.lines, base)
		t.first[base] = l
	}
	t.idle = append(t.idle, b)
	return l
}

// line returns the line at node for a flow arriving from prev, or nil if
// the algorithm never routes that flow through it. A flow's first hop is
// one map read; any other line is found by walking the flow's lines from
// its first hop along Then, carrying each line's node, in w's scratch.
func (t *Tables) line(node, prev noc.NodeID, flow noc.FlowID, w *walk) *noc.RouteLine {
	first := t.firstLine(flow.Base())
	src := flow.Src()
	if node == src && prev == src && !flow.Phase2() {
		return first
	}
	if first == nil {
		return nil
	}
	return w.find(first, src, node, prev, flow.Phase2())
}

// walk is the scratch of find, reused from walk to walk by one thread.
type walk struct {
	stack []lineAt
	seen  map[lineAt]struct{}
}

// lineAt is a line reached at a node.
type lineAt struct {
	node noc.NodeID
	line *noc.RouteLine
}

// find walks a flow's lines from its first-hop line at src along Then to
// the line at node for the flow arriving from prev in the given phase, or
// nil if the walk never reaches it. A line reached at one node links the
// same lines whichever way it was reached, so each (node, line) is expanded
// once: the walk costs the flow's line count, not its path count. Once w
// has held as many lines as a walk reaches, the walk allocates nothing.
func (w *walk) find(first *noc.RouteLine, src, node, prev noc.NodeID, phase2 bool) *noc.RouteLine {
	if w.seen == nil {
		w.seen = make(map[lineAt]struct{})
	}
	clear(w.seen)
	w.stack = append(w.stack[:0], lineAt{src, first})
	w.seen[lineAt{src, first}] = struct{}{}
	for len(w.stack) > 0 {
		cur := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		for i := range cur.line.Entries {
			e := &cur.line.Entries[i]
			if e.Next == cur.node || e.Then == nil {
				continue
			}
			if cur.node == prev && e.Next == node && e.Phase2 == phase2 {
				return e.Then
			}
			next := lineAt{e.Next, e.Then}
			if _, ok := w.seen[next]; !ok {
				w.seen[next] = struct{}{}
				w.stack = append(w.stack, next)
			}
		}
	}
	return nil
}

// Lookup returns the weighted next-hop set at node for a flow arriving
// from prev, or nil if the algorithm never routes that flow through that
// table line (a configuration or builder bug, which the router reports).
func (t *Tables) Lookup(node, prev noc.NodeID, flow noc.FlowID) []noc.RouteEntry {
	if l := t.line(node, prev, flow, new(walk)); l != nil {
		return l.Entries
	}
	return nil
}

// ForNode returns the node-local view implementing noc.RouteTable.
func (t *Tables) ForNode(n noc.NodeID) noc.RouteTable {
	return &nodeTable{tables: t, node: n}
}

// nodeTable is one node's view of the shared store. A router asks it only
// for the line of a flit that carries none — a flow's first hop, once per
// flow (the source keeps the line it got), and a head flit after a
// restore — and it is only queried by the worker stepping its node (one
// worker at a time, handed over only at the barrier), so it walks to a
// line off a flow's first hop (find) in scratch of its own. It holds no
// lines: they are the shared store's own.
type nodeTable struct {
	tables *Tables
	node   noc.NodeID
	walk   walk
}

func (nt *nodeTable) Lookup(prev noc.NodeID, flow noc.FlowID) *noc.RouteLine {
	return nt.tables.line(nt.node, prev, flow, &nt.walk)
}

// Line resolves a line number handed out by any node's view of the store.
func (nt *nodeTable) Line(id uint32) *noc.RouteLine { return nt.tables.lines.line(id) }

func (nt *nodeTable) Adaptive() bool { return nt.tables.alg.Adaptive() }

func panicf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}
